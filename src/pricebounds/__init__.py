"""Model-free price bounds for piece-wise affine payoffs.

The library computes no-arbitrage upper and lower price bounds for
derivatives with continuous piece-wise affine payoffs, given bid/ask
quotes for traded instruments, by cutting-plane solution of the
underlying semi-infinite superhedging program.  It also detects
arbitrage, repairs quote chains, extracts extremal pricing measures,
and generates synthetic markets for validation.
"""

from .cpwa import (CpwaFunction, CpwaTerm, make_function, zero_function,
                   constant_function, evaluate, evaluate_many, radial,
                   linear_combination, vanilla_call, vanilla_put, asset,
                   basket_call, spread_call, call_on_max, call_on_min,
                   put_on_min, best_of_calls, make_payoff)
from .lp import (LinearProgram, LpSolution, solve_lp, chebyshev_center,
                 ResourceLimitError, ConditioningError)
from .milp import (MixedIntegerProgram, MilpOptions, MilpResult,
                   solve_milp)
from .encoding import encode_min, minimize_over_box, big_m
from .radial import RadialSystem, generate as generate_radial_system
from .ecp import (Box, HalfSpacePositive, MarketInstance, EcpOptions,
                  BoundsResult, solve_ecp, price_pi, verify_hedge,
                  compute_lower_phi)
from .accp import (AccpOptions, DiscreteMeasure, LpContradictionError,
                   solve_accp, extract_measure, detect_unbounded_flag)
from .arbitrage import (OptionChain, RepairResult, DetectionResult,
                        repair_chain, chain_to_instance, detect,
                        filter_outliers)
from .market import (MarginalModel, CopulaModel, MarketModelFamily,
                     sample_joint, price_payoff, build_market,
                     trunc_lognorm_call_price, trunc_lognorm_put_price,
                     five_asset_family, five_asset_instruments,
                     random_family)

__version__ = "0.1.0"
