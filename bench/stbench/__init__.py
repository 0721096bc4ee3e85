"""Layered benchmark for stairtile: workloads, runner, checks, tracing."""
