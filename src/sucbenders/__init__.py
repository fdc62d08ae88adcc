"""Adaptive Benders decomposition for two-stage stochastic unit commitment."""

from .backend import LinearModel, SolveResult, SolveStatus, solve_lp, solve_milp
from .cuts import Cut, CutKind, CutMode, CutPool
from .data import (Generator, Line, ScenarioSet, SystemInstance, WindFarm,
                   load_instance, load_scenarios)
from .engine import BendersConfig, BendersState, ConvergedSolution, RunStatus, run
from .formulations import (FirstStageSolution, SubproblemResult,
                           build_extensive, build_master, build_subproblem)
from .outer import SubsetPlan, form_subsets, intersect_commitments, run_outer

__version__ = "0.1.0"
