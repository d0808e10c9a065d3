"""Repository benchmark: two closed-loop workloads over the public
``repro.*`` entry points, end-to-end metrics from untraced runs and a
per-layer breakdown from a separate traced run.  See README.md."""
