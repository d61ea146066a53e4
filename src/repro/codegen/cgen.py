"""Generate C source for SDF graphs: the Fig.-8 artefact.

:func:`generate_c` reproduces the paper's Fig. 8 textually — the C
program ``buffy`` emits per graph, built from a handful of macros
(``CH``, ``CHECK_TOKENS``, ``CHECK_SPACE``, ``CONSUME``, ``PRODUCE``,
``ACT_CLK``, ``LOWER_CLK``) around a ``while`` loop that advances one
time step per iteration.  The paper's figure assumes a ``storeState``
provided by the surrounding framework; the output here is
*self-contained* — it emits a linear-scan visited-state set, deadlock
detection and a ``main`` reading a storage distribution from ``argv``,
so the artefact actually compiles and runs standalone.  It remains a
documentation artefact (one step per loop iteration, ``int`` state);
executable probes use the ``cc`` backend's kernel, which takes the
graph as data (:mod:`repro.engine.ckernel`), or
:mod:`repro.codegen.pygen`.

Note the printed ``CHECK_SPACE`` macro in the paper is corrupted by
OCR; the version emitted here implements the semantics of Sec. 2
(``sz[c] - CH(c) >= n``).
"""

from __future__ import annotations

from repro.graph.graph import SDFGraph


def generate_c(graph: SDFGraph, observe: str | None = None) -> str:
    """Return Fig.-8-style C source for *graph*, compilable standalone."""
    if observe is None:
        observe = graph.actor_names[-1]
    actor_names = graph.actor_names
    channel_names = graph.channel_names
    channel_index = {name: j for j, name in enumerate(channel_names)}
    observe_index = actor_names.index(observe)

    lines = [
        f"/* Generated explorer for SDF graph '{graph.name}' (observing '{observe}').",
        "   Style of Fig. 8 of Stuijk/Geilen/Basten, DAC 2006. */",
        "",
        "#include <stdio.h>",
        "#include <stdlib.h>",
        "#include <string.h>",
        "",
        "#define CH(c) (sdfState.ch[c])",
        "#define CHECK_TOKENS(c,n) (CH(c) >= (n))",
        "#define CHECK_SPACE(c,n) (sz[c] - CH(c) >= (n))",
        "#define CONSUME(c,n) CH(c) = CH(c) - (n);",
        "#define PRODUCE(c,n) CH(c) = CH(c) + (n);",
        "#define ACT_CLK(a) (sdfState.act_clk[a])",
        "#define LOWER_CLK(a) if (ACT_CLK(a) > 0) { ACT_CLK(a) = ACT_CLK(a) - 1; }",
        "",
        f"static int sz[{len(channel_names)}];  /* storage distribution */",
        "",
        "typedef struct State {",
        f"    int act_clk[{len(actor_names)}];",
        f"    int ch[{len(channel_names)}];",
        "    int dist;",
        "} State;",
        "",
        "static State sdfState;",
        "",
        "/* The paper's figure assumes a framework-provided storeState();",
        "   this self-contained version implements it as a growable",
        "   visited-state store with linear lookup.  Returning 1 closes",
        "   the periodic phase (state recurrence). */",
        "#define MAX_STATES 65536",
        "static State stored[MAX_STATES];",
        "static int storedCount = 0;",
        "static int cycleStart = -1;",
        "",
        "static int storeState(State s) {",
        "    for (int i = 0; i < storedCount; i++) {",
        "        if (memcmp(&stored[i], &s, sizeof(State)) == 0) { cycleStart = i; return 1; }",
        "    }",
        "    if (storedCount < MAX_STATES) { stored[storedCount] = s; storedCount = storedCount + 1; }",
        "    return 0;",
        "}",
        "",
        "int execSDFgraph() {",
        "    while (1) {",
    ]

    lower = " ".join(f"LOWER_CLK({i});" for i in range(len(actor_names)))
    lines.append(f"        {lower}")
    lines.append("        sdfState.dist = sdfState.dist + 1;")
    lines.append("")

    for index, name in enumerate(actor_names):
        conditions = [f"ACT_CLK({index}) == 0"]
        for channel in graph.incoming(name):
            conditions.append(f"CHECK_TOKENS({channel_index[channel.name]},{channel.consumption})")
        for channel in graph.outgoing(name):
            conditions.append(f"CHECK_SPACE({channel_index[channel.name]},{channel.production})")
        execution_time = graph.actors[name].execution_time
        lines.append(
            f"        if ({' && '.join(conditions)}) {{ ACT_CLK({index}) = {execution_time}; }}"
            f"  /* start {name} */"
        )
    lines.append("")

    for index, name in enumerate(actor_names):
        effects = "".join(
            f" CONSUME({channel_index[c.name]},{c.consumption});" for c in graph.incoming(name)
        ) + "".join(
            f" PRODUCE({channel_index[c.name]},{c.production});" for c in graph.outgoing(name)
        )
        suffix = ""
        if index == observe_index:
            suffix = " if (storeState(sdfState)) return 1; sdfState.dist = 0;"
        lines.append(
            f"        if (ACT_CLK({index}) == 1) {{{effects}{suffix} }}  /* end {name} */"
        )

    # All clocks zero at the bottom of an iteration means nothing is
    # running, nothing started this step, and (since ends leave the
    # clock at 1 until the next LOWER_CLK) nothing ended either — the
    # token state can never change again.
    idle = " && ".join(f"ACT_CLK({i}) == 0" for i in range(len(actor_names)))
    lines += [
        "",
        f"        if ({idle}) {{ return 0; }}  /* deadlock: nothing running or enabled */",
        "    }",
        "}",
        "",
        "int main(int argc, char **argv) {",
        f"    for (int c = 0; c < {len(channel_names)}; c++) {{",
        "        sz[c] = (c + 1 < argc) ? atoi(argv[c + 1]) : (1 << 30);",
        "    }",
        "    memset(&sdfState, 0, sizeof(State));",
    ]
    for index, name in enumerate(channel_names):
        tokens = graph.channels[name].initial_tokens
        if tokens:
            lines.append(f"    sdfState.ch[{index}] = {tokens};  /* {name} */")
    lines += [
        "    if (execSDFgraph()) {",
        "        int firings = storedCount - cycleStart;",
        "        int duration = sdfState.dist;",
        "        for (int i = cycleStart + 1; i < storedCount; i++) { duration += stored[i].dist; }",
        '        printf("throughput %d/%d (%d states)\\n", firings, duration, storedCount);',
        "    } else {",
        '        printf("deadlock\\n");',
        "    }",
        "    return 0;",
        "}",
        "",
    ]
    return "\n".join(lines)
