"""Graph processing on a disaggregated data center.

Generates a power-law social graph, then runs single-source shortest
paths, reachability and connected components through the GAS engine on
all three platforms. On the TELEPORT platform the finalize, gather and
scatter phases are pushed to the memory pool — the paper's PowerGraph
port (Section 5.2).

Run:  python examples/graph_analytics.py
"""

from repro.ddc import make_platform
from repro.graph import (
    GraphEngine,
    connected_components,
    reachability,
    social_graph,
    sssp,
)
from repro.sim.config import scaled_config
from repro.sim.units import MS

N_VERTICES = 20_000
PUSHDOWN_PHASES = ("finalize", "gather", "scatter")


def run(kind, src, dst, weight, algorithm):
    nbytes = src.nbytes + dst.nbytes + weight.nbytes + 4 * N_VERTICES * 8
    config = scaled_config(nbytes, cache_ratio=0.02)
    platform = make_platform(kind, config)
    ctx = platform.main_context()
    pushdown = PUSHDOWN_PHASES if kind == "teleport" else ()
    engine = GraphEngine(ctx, N_VERTICES, src, dst, weight, pushdown=pushdown)
    answer = algorithm(engine)
    return answer, engine


def main():
    src, dst, weight = social_graph(N_VERTICES, avg_degree=12, seed=2022)
    print(f"graph: {N_VERTICES} vertices, {len(src)} edges\n")

    algorithms = {
        "SSSP": lambda engine: sssp(engine, 0),
        "Reachability": lambda engine: reachability(engine, 0),
        "Components": connected_components,
    }
    print(f"{'algorithm':14s} {'local':>12s} {'base DDC':>12s} "
          f"{'TELEPORT':>12s} {'speedup':>9s}")
    for name, algorithm in algorithms.items():
        answers = {}
        times = {}
        for kind in ("local", "ddc", "teleport"):
            answer, engine = run(kind, src, dst, weight, algorithm)
            answers[kind] = answer
            times[kind] = engine.total_time_ns()
        assert (answers["local"] == answers["teleport"]).all()
        print(
            f"{name:14s} {times['local'] / MS:9.1f} ms {times['ddc'] / MS:9.1f} ms "
            f"{times['teleport'] / MS:9.1f} ms "
            f"{times['ddc'] / times['teleport']:8.1f}x"
        )

    # Peek at where the DDC time goes (the paper's Figure 10 story).
    _answer, ddc_engine = run("ddc", src, dst, weight, algorithms["SSSP"])
    print("\nSSSP phase breakdown on the base DDC:")
    for phase in ("finalize", "scatter", "gather", "apply"):
        profile = ddc_engine.phases.profiles[phase]
        print(
            f"  {phase:9s} {profile.time_ns / MS:9.1f} ms, "
            f"{profile.remote_bytes / 1e6:8.1f} MB moved over the fabric"
        )

if __name__ == "__main__":
    main()
