"""No code: ifslab solves no linear programs; the module stays because bench/workloads.py lists it as a layer by name."""
