"""Analysis utilities: graphs, ASCII visualisation, report tables."""

from repro.analysis.graphs import (
    conflict_graph,
    find_cycle,
    reachable,
    topological_order,
    transitive_closure,
)
from repro.analysis.report import format_table, print_table
from repro.analysis.viz import render_conflicts, render_process, render_schedule
from repro.analysis.dot import (
    process_to_dot,
    schedule_to_dot,
    serialization_graph_to_dot,
)
