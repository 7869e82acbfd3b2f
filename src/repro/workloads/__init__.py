"""Workload models and synthetic trace generation.

Transactional (clustered web) applications with intensity profiles,
long-running jobs with fluid progress accounting, Poisson/NHPP arrival
processes, and the paper's evaluation trace
(:func:`~repro.workloads.tracegen.paper_job_trace`).
"""

from .arrivals import (
    exponential_arrival_times,
    nhpp_arrival_times,
    piecewise_exponential_arrival_times,
)
from .jobs import Job, JobPhase, JobRows, JobSpec, JobStats, JobTable
from .profiles import (
    ConstantProfile,
    DiurnalProfile,
    IntensityProfile,
    NoisyProfile,
    Profile,
    StepProfile,
)
from .tracegen import (
    PAPER_JOB_TEMPLATE,
    JobTemplate,
    differentiated_job_trace,
    paper_job_trace,
    uniform_job_trace,
)
from .transactional import TransactionalApp, TransactionalAppSpec

__all__ = [
    "Job",
    "JobPhase",
    "JobSpec",
    "JobStats",
    "JobRows",
    "JobTable",
    "JobTemplate",
    "PAPER_JOB_TEMPLATE",
    "TransactionalApp",
    "TransactionalAppSpec",
    "IntensityProfile",
    "ConstantProfile",
    "StepProfile",
    "DiurnalProfile",
    "NoisyProfile",
    "Profile",
    "exponential_arrival_times",
    "piecewise_exponential_arrival_times",
    "nhpp_arrival_times",
    "uniform_job_trace",
    "paper_job_trace",
    "differentiated_job_trace",
]
