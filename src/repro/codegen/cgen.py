"""Generate C source for SDF graphs: the Fig.-8 artefact and the probe kernel.

Two generators live here:

:func:`generate_c`
    Reproduces the paper's Fig. 8 textually — the C program ``buffy``
    emits per graph, built from a handful of macros (``CH``,
    ``CHECK_TOKENS``, ``CHECK_SPACE``, ``CONSUME``, ``PRODUCE``,
    ``ACT_CLK``, ``LOWER_CLK``) around a ``while`` loop that advances
    one time step per iteration.  The paper's figure assumes a
    ``storeState`` provided by the surrounding framework; the output
    here is *self-contained* — it emits a linear-scan visited-state
    set, deadlock detection and a ``main`` reading a storage
    distribution from ``argv``, so the artefact actually compiles and
    runs standalone.  It remains a documentation artefact (one step per
    loop iteration, ``int`` state); executable probes use
    :func:`generate_kernel_c` below or :mod:`repro.codegen.pygen`.

    Note the printed ``CHECK_SPACE`` macro in the paper is corrupted by
    OCR; the version emitted here implements the semantics of Sec. 2
    (``sz[c] - CH(c) >= n``).

:func:`generate_kernel_c`
    Emits the production probe kernel behind the ``"cc"`` backend
    (:mod:`repro.engine.ccore`): a complete, self-contained C
    translation unit specialised to one ``(graph, observe)`` pair —
    event-calendar loop over absolute completion times, an
    open-addressing hash set of reduced states for cycle detection,
    stall/starvation detection, throughput extraction at the observed
    actor, and the batched lane entry points ``probe_many`` /
    ``probe_many_exact``.  Semantics mirror
    :class:`repro.engine.fastcore.FastKernel` instruction for
    instruction so results are bit-identical to the reference
    executor (the backend-conformance suite is the gate).

``CODEGEN_VERSION`` participates in the on-disk kernel-cache key, so
any change to the emitted source must bump it — stale shared objects
are then simply never looked up again.
"""

from __future__ import annotations

from repro.exceptions import GraphError
from repro.graph.graph import SDFGraph

#: Version tag of the emitted kernel source.  Part of the
#: content-addressed cache key in :mod:`repro.engine.ccore`: bump it
#: whenever :func:`generate_kernel_c` output changes so cached shared
#: objects from older generators can never be loaded.
CODEGEN_VERSION = "cc-2"

#: ABI stamp compiled into every kernel (``repro_kernel_abi()``); the
#: loader refuses shared objects reporting anything else, which turns
#: truncated or foreign files in the cache into a clean recompile.
KERNEL_ABI = 2


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


# ---------------------------------------------------------------------------
# The probe kernel behind the "cc" backend
# ---------------------------------------------------------------------------


def _int_array(name: str, values: list[int], ctype: str = "int64_t") -> str:
    """A ``static const`` array line; zero-length arrays are padded (C
    forbids empty initialisers) and never read past their real count."""
    body = ", ".join(str(v) for v in values) if values else "0"
    return f"static const {ctype} {name}[{max(1, len(values))}] = {{{body}}};"


def generate_kernel_c(graph: SDFGraph, observe: str | None = None) -> str:
    """Self-contained probe-kernel C source for ``(graph, observe)``.

    The emitted translation unit exports:

    ``int64_t repro_kernel_abi(void)`` /
    ``repro_kernel_actors`` / ``repro_kernel_channels``
        Loader handshake: ABI stamp and graph shape, checked before a
        cached shared object is trusted.
    ``int32_t probe_many_exact(const int64_t *caps, int32_t lanes,
    int64_t stall_threshold, int64_t max_firings, int32_t blocking,
    int64_t *out)``
        The exact batched entry point the backend uses.  ``caps`` is
        ``lanes * N_CHANNELS`` capacities (unbounded channels carry a
        huge sentinel), ``out`` receives per lane four ``int64`` —
        firings-in-cycle, cycle-duration, states-stored, deadlocked —
        followed, when *blocking* is set, by ``N_CHANNELS`` minimal
        space deficits (0: the channel never blocked a firing on
        space).  Throughput is reconstructed host-side as the exact
        ``Fraction(firings, duration)``.  Returns 0 or one of the
        ``RC_*`` failure codes: the per-instant firing guard tripped
        (diverging zero-time cascade), allocation failed, a completion
        time or a cycle sum would overflow ``int64``, or the visited
        set outgrew its ``int32`` record index.
    ``int32_t probe_many(const int64_t *caps, int32_t lanes,
    double *out)``
        Convenience lane entry point writing throughput as a double
        per lane, with the default stall/guard thresholds baked in.

    Execution semantics are exactly those of
    :class:`repro.engine.fastcore.FastKernel`: tokens are consumed
    *and* produced at the end of a firing, enabled firings start as a
    fixpoint over zero-execution-time cascades (sound by confluence —
    each channel has a unique producer and consumer), reduced states
    ``(relative clocks, tokens, distance, firings)`` are recorded
    whenever the observed actor completes a firing, a revisited state
    closes the periodic phase, and ``stall_threshold`` observation-free
    instants arm a full-state recurrence check that reports starvation
    as throughput zero.  In blocking mode every failed start check of
    an idle actor without a token shortage records, per full output
    channel, the deficit ``tokens + rate - capacity``, keeping the
    minimum per channel — the reference executor's ``track_blocking``
    data.  The scan visits idle actors in index order, pass by pass,
    as the reference does, so the intermediate states of zero-time
    cascades are seen in the same order.
    """
    if graph.num_actors == 0:
        raise GraphError("cannot generate a kernel for an empty graph")
    if observe is None:
        observe = graph.actor_names[-1]
    if observe not in graph.actors:
        raise GraphError(f"unknown observed actor {observe!r}")

    actor_names = graph.actor_names
    channel_names = graph.channel_names
    n, m = len(actor_names), len(channel_names)
    actor_index = {name: i for i, name in enumerate(actor_names)}
    channel_index = {name: j for j, name in enumerate(channel_names)}
    observe_idx = actor_index[observe]

    exec_times = [graph.actors[name].execution_time for name in actor_names]
    initial_tokens = [graph.channels[name].initial_tokens for name in channel_names]
    cons_rate = [graph.channels[name].consumption for name in channel_names]
    prod_rate = [graph.channels[name].production for name in channel_names]

    # Flattened per-actor adjacency (rates live on the channel: each
    # channel has a unique producer and a unique consumer).
    in_off, in_ch, out_off, out_ch = [0], [], [0], []
    for name in actor_names:
        in_ch.extend(channel_index[c.name] for c in graph.incoming(name))
        in_off.append(len(in_ch))
        out_ch.extend(channel_index[c.name] for c in graph.outgoing(name))
        out_off.append(len(out_ch))

    from repro.engine import executor as _reference

    default_stall = _reference._DEFAULT_STALL_THRESHOLD
    default_guard = _reference._MAX_FIRINGS_PER_INSTANT

    graph_label = graph.name.replace("*/", "* /")
    header = f"""\
/* Probe kernel for SDF graph '{graph_label}' (observing '{observe}').
 * Generated by repro.codegen.cgen version {CODEGEN_VERSION}; do not edit.
 *
 * Self-timed bounded execution to the periodic phase, bit-identical
 * to repro.engine.executor (tokens move at firing END; zero-time
 * cascades run to a fixpoint; reduced-state recurrence closes the
 * cycle; stall_threshold observation-free instants arm starvation
 * detection on full states).
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define N_ACTORS {n}
#define N_CHANNELS {m}
#define OBSERVE {observe_idx}
#define KEY_WORDS (N_ACTORS + N_CHANNELS + 2)  /* clocks, tokens, distance, firings */
#define FULL_WORDS (N_ACTORS + N_CHANNELS)     /* clocks, tokens (stall keys) */
#define KERNEL_ABI {KERNEL_ABI}
#define DEFAULT_STALL_THRESHOLD {default_stall}
#define DEFAULT_MAX_FIRINGS {default_guard}

#define RC_OK 0
#define RC_CASCADE 1         /* per-instant firing guard tripped */
#define RC_NOMEM 2
#define RC_TIME_OVERFLOW 3   /* a completion time exceeds int64 */
#define RC_CYCLE_OVERFLOW 4  /* a cycle's firings or duration exceed int64 */
#define RC_STATE_LIMIT 5     /* the visited set outgrew its int32 index */

/* Largest record count of a visited set: its open-addressing table
 * (at most 3/4 full) then still fits an int32 size and index. */
#define MAX_RECORDS (1 << 29)

/* Keeps the blocking-mode helper out of the scan loop: inlined, it
 * adds about a fifth to the compile time of every kernel. */
#if defined(__GNUC__) || defined(__clang__)
#define NOINLINE __attribute__((noinline))
#else
#define NOINLINE
#endif

{_int_array("EXEC_TIME", exec_times)}
{_int_array("INITIAL_TOKENS", initial_tokens)}
{_int_array("CONS_RATE", cons_rate)}
{_int_array("PROD_RATE", prod_rate)}
{_int_array("IN_OFF", in_off, "int32_t")}
{_int_array("IN_CH", in_ch, "int32_t")}
{_int_array("OUT_OFF", out_off, "int32_t")}
{_int_array("OUT_CH", out_ch, "int32_t")}
"""

    body = """\
/* ---- open-addressing visited-state set ------------------------------ */

typedef struct StateSet {
    int64_t *keys;   /* cap * words, insertion order */
    int64_t *dist;   /* per record: distance since previous record */
    int64_t *cnt;    /* per record: observed firings at the record */
    int32_t *slots;  /* hash table: record index + 1; 0 = empty */
    int32_t  count;
    int32_t  cap;
    int32_t  mask;   /* table size - 1 (power of two) */
    int32_t  words;
    int32_t  track;  /* keep dist/cnt (the record set; stall set does not) */
} StateSet;

static uint64_t hash_key(const int64_t *key, int32_t words) {
    uint64_t h = 1469598103934665603ULL;  /* FNV-1a over the key words */
    for (int32_t w = 0; w < words; w++) {
        h ^= (uint64_t)key[w];
        h *= 1099511628211ULL;
    }
    return h ^ (h >> 29);
}

static int32_t set_init(StateSet *s, int32_t words, int32_t track) {
    memset(s, 0, sizeof(StateSet));
    s->cap = 64;
    s->mask = 255;
    s->words = words;
    s->track = track;
    s->keys = (int64_t *)malloc((size_t)s->cap * (size_t)words * sizeof(int64_t));
    s->slots = (int32_t *)calloc((size_t)s->mask + 1, sizeof(int32_t));
    if (track) {
        s->dist = (int64_t *)malloc((size_t)s->cap * sizeof(int64_t));
        s->cnt = (int64_t *)malloc((size_t)s->cap * sizeof(int64_t));
    }
    if (!s->keys || !s->slots || (track && (!s->dist || !s->cnt))) return RC_NOMEM;
    return RC_OK;
}

static void set_clear(StateSet *s) {
    s->count = 0;
    if (s->slots) memset(s->slots, 0, ((size_t)s->mask + 1) * sizeof(int32_t));
}

static void set_release(StateSet *s) {
    free(s->keys);
    free(s->dist);
    free(s->cnt);
    free(s->slots);
    memset(s, 0, sizeof(StateSet));
}

static int32_t set_rehash(StateSet *s) {
    int32_t size = (s->mask + 1) * 2;
    int32_t *slots = (int32_t *)calloc((size_t)size, sizeof(int32_t));
    if (!slots) return RC_NOMEM;
    free(s->slots);
    s->slots = slots;
    s->mask = size - 1;
    for (int32_t j = 0; j < s->count; j++) {
        uint64_t idx = hash_key(s->keys + (size_t)j * s->words, s->words) & (uint64_t)s->mask;
        while (s->slots[idx]) idx = (idx + 1) & (uint64_t)s->mask;
        s->slots[idx] = j + 1;
    }
    return RC_OK;
}

/* Insert *key* if absent.  Returns the existing record index (>= 0) on
 * a revisit, -1 on a fresh insert, -2 on allocation failure, -3 when
 * the set already holds MAX_RECORDS records. */
static int64_t set_find_or_insert(StateSet *s, const int64_t *key, int64_t d, int64_t c) {
    size_t bytes = (size_t)s->words * sizeof(int64_t);
    uint64_t idx = hash_key(key, s->words) & (uint64_t)s->mask;
    while (s->slots[idx]) {
        int32_t j = s->slots[idx] - 1;
        if (memcmp(s->keys + (size_t)j * s->words, key, bytes) == 0) return j;
        idx = (idx + 1) & (uint64_t)s->mask;
    }
    if (s->count >= MAX_RECORDS) return -3;
    if (s->count == s->cap) {
        int32_t cap = s->cap * 2;
        int64_t *keys = (int64_t *)realloc(s->keys, (size_t)cap * bytes);
        if (!keys) return -2;
        s->keys = keys;
        if (s->track) {
            int64_t *dist = (int64_t *)realloc(s->dist, (size_t)cap * sizeof(int64_t));
            if (!dist) return -2;
            s->dist = dist;
            int64_t *cnt = (int64_t *)realloc(s->cnt, (size_t)cap * sizeof(int64_t));
            if (!cnt) return -2;
            s->cnt = cnt;
        }
        s->cap = cap;
    }
    memcpy(s->keys + (size_t)s->count * s->words, key, bytes);
    if (s->track) {
        s->dist[s->count] = d;
        s->cnt[s->count] = c;
    }
    s->slots[idx] = ++s->count;
    if ((int64_t)s->count * 4 >= ((int64_t)s->mask + 1) * 3) {
        if (set_rehash(s) != RC_OK) return -2;
    }
    return -1;
}

/* ---- one lane: simulate to the periodic phase or deadlock ----------- */

/* Blocking mode: idle actor a failed its start check.  Unless a token
 * shortage blocked it, every full output channel records its deficit
 * tokens + rate - capacity, keeping the minimum per channel (0 = never
 * blocked on space) — the reference executor's _can_start(collect). */
NOINLINE static void note_space_blocked(int32_t a, const int64_t *tokens,
                                        const int64_t *caps, int64_t *deficits) {
    for (int32_t k = IN_OFF[a]; k < IN_OFF[a + 1]; k++)
        if (tokens[IN_CH[k]] < CONS_RATE[IN_CH[k]]) return;
    for (int32_t k = OUT_OFF[a]; k < OUT_OFF[a + 1]; k++) {
        int32_t c = OUT_CH[k];
        int64_t excess = tokens[c] + PROD_RATE[c] - caps[c];
        if (excess > 0 && (deficits[c] == 0 || excess < deficits[c])) deficits[c] = excess;
    }
}

/* out: {firings_in_cycle, cycle_duration, states_stored, deadlocked};
 * deficits: N_CHANNELS minimal space deficits, or NULL (plain lanes). */
static int32_t run_one(const int64_t *caps, int64_t stall_threshold,
                       int64_t max_firings, StateSet *seen, StateSet *stalls,
                       int64_t *out, int64_t *deficits) {
    int64_t tokens[N_CHANNELS > 0 ? N_CHANNELS : 1];
    int64_t completion[N_ACTORS];
    int64_t key[KEY_WORDS];
    int64_t time = 0, last_firing = 0, idle_streak = 0;

    set_clear(seen);
    set_clear(stalls);
    for (int32_t c = 0; c < N_CHANNELS; c++) tokens[c] = INITIAL_TOKENS[c];
    for (int32_t a = 0; a < N_ACTORS; a++) completion[a] = -1;
    if (deficits) memset(deficits, 0, N_CHANNELS * sizeof(int64_t));

    for (;;) {
        /* 1. complete due firings: tokens are consumed AND produced at
         * the END of a firing, one observed completion per event. */
        int64_t observed = 0;
        for (int32_t a = 0; a < N_ACTORS; a++) {
            if (completion[a] != time) continue;
            completion[a] = -1;
            for (int32_t k = IN_OFF[a]; k < IN_OFF[a + 1]; k++)
                tokens[IN_CH[k]] -= CONS_RATE[IN_CH[k]];
            for (int32_t k = OUT_OFF[a]; k < OUT_OFF[a + 1]; k++)
                tokens[OUT_CH[k]] += PROD_RATE[OUT_CH[k]];
            if (a == OBSERVE) observed++;
        }

        /* 2. start enabled firings, as a fixpoint over zero-time
         * cascades.  Confluence (unique producer/consumer per channel)
         * makes the scan order irrelevant to the state reached:
         * starting one enabled actor can never disable another.  The
         * blocking records do depend on it, and this is the reference
         * executor's order. */
        int64_t fired = 0;
        int32_t changed = 1;
        while (changed) {
            changed = 0;
            for (int32_t a = 0; a < N_ACTORS; a++) {
                if (completion[a] >= 0) continue;  /* busy */
                int32_t enabled = 1;
                for (int32_t k = IN_OFF[a]; enabled && k < IN_OFF[a + 1]; k++)
                    if (tokens[IN_CH[k]] < CONS_RATE[IN_CH[k]]) enabled = 0;
                for (int32_t k = OUT_OFF[a]; enabled && k < OUT_OFF[a + 1]; k++)
                    if (tokens[OUT_CH[k]] + PROD_RATE[OUT_CH[k]] > caps[OUT_CH[k]]) enabled = 0;
                if (!enabled) {
                    if (deficits) note_space_blocked(a, tokens, caps, deficits);
                    continue;
                }
                if (++fired > max_firings) return RC_CASCADE;
                if (EXEC_TIME[a] == 0) {
                    /* fire-and-finish: zero-time firings move their
                     * tokens immediately and may cascade */
                    for (int32_t k = IN_OFF[a]; k < IN_OFF[a + 1]; k++)
                        tokens[IN_CH[k]] -= CONS_RATE[IN_CH[k]];
                    for (int32_t k = OUT_OFF[a]; k < OUT_OFF[a + 1]; k++)
                        tokens[OUT_CH[k]] += PROD_RATE[OUT_CH[k]];
                    if (a == OBSERVE) observed++;
                    changed = 1;
                } else {
                    /* INT64_MAX stays free: it means "nothing running" */
                    if (EXEC_TIME[a] >= INT64_MAX - time) return RC_TIME_OVERFLOW;
                    completion[a] = time + EXEC_TIME[a];
                }
            }
        }

        /* 3. record / stall bookkeeping */
        if (observed > 0) {
            int64_t distance = time - last_firing;
            last_firing = time;
            idle_streak = 0;
            if (stalls->count) set_clear(stalls);
            for (int32_t a = 0; a < N_ACTORS; a++)
                key[a] = completion[a] >= 0 ? completion[a] - time : 0;
            for (int32_t c = 0; c < N_CHANNELS; c++) key[N_ACTORS + c] = tokens[c];
            key[N_ACTORS + N_CHANNELS] = distance;
            key[N_ACTORS + N_CHANNELS + 1] = observed;
            int64_t repeat = set_find_or_insert(seen, key, distance, observed);
            if (repeat == -2) return RC_NOMEM;
            if (repeat == -3) return RC_STATE_LIMIT;
            if (repeat >= 0) {
                /* periodic phase closed: the cycle spans the records
                 * after the first visit plus the current recurrence */
                int64_t firings = observed, duration = distance;
                for (int32_t j = (int32_t)repeat + 1; j < seen->count; j++) {
                    if (seen->cnt[j] > INT64_MAX - firings
                        || seen->dist[j] > INT64_MAX - duration)
                        return RC_CYCLE_OVERFLOW;
                    firings += seen->cnt[j];
                    duration += seen->dist[j];
                }
                out[0] = firings;
                out[1] = duration;
                out[2] = seen->count;
                out[3] = 0;
                return RC_OK;
            }
        } else {
            idle_streak++;
            if (idle_streak >= stall_threshold) {
                /* the observed actor has starved for stall_threshold
                 * instants: full-state recurrence means it never fires
                 * again (throughput zero) */
                for (int32_t a = 0; a < N_ACTORS; a++)
                    key[a] = completion[a] >= 0 ? completion[a] - time : 0;
                for (int32_t c = 0; c < N_CHANNELS; c++) key[N_ACTORS + c] = tokens[c];
                int64_t repeat = set_find_or_insert(stalls, key, 0, 0);
                if (repeat == -2) return RC_NOMEM;
                if (repeat == -3) return RC_STATE_LIMIT;
                if (repeat >= 0) {
                    out[0] = 0;
                    out[1] = 0;
                    out[2] = seen->count;
                    out[3] = 1;
                    return RC_OK;
                }
            }
        }

        /* 4. deadlock check, then advance to the next completion */
        int64_t next = INT64_MAX;
        for (int32_t a = 0; a < N_ACTORS; a++)
            if (completion[a] >= 0 && completion[a] < next) next = completion[a];
        if (next == INT64_MAX) {
            out[0] = 0;
            out[1] = 0;
            out[2] = seen->count;
            out[3] = 1;
            return RC_OK;
        }
        time = next;
    }
}

/* ---- exported entry points ------------------------------------------ */

int64_t repro_kernel_abi(void) { return KERNEL_ABI; }
int64_t repro_kernel_actors(void) { return N_ACTORS; }
int64_t repro_kernel_channels(void) { return N_CHANNELS; }

/* Exact batched entry point: caps is lanes * N_CHANNELS capacities,
 * out receives 4 int64 per lane (firings, duration, states, dead),
 * followed with *blocking* by the lane's N_CHANNELS minimal deficits. */
int32_t probe_many_exact(const int64_t *caps, int32_t lanes,
                         int64_t stall_threshold, int64_t max_firings,
                         int32_t blocking, int64_t *out) {
    size_t stride = 4 + (blocking ? N_CHANNELS : 0);
    StateSet seen, stalls;
    int32_t rc = set_init(&seen, KEY_WORDS, 1);
    if (rc == RC_OK) rc = set_init(&stalls, FULL_WORDS, 0);
    else memset(&stalls, 0, sizeof(StateSet));
    for (int32_t lane = 0; rc == RC_OK && lane < lanes; lane++) {
        int64_t *row = out + (size_t)lane * stride;
        rc = run_one(caps + (size_t)lane * N_CHANNELS, stall_threshold,
                     max_firings, &seen, &stalls, row, blocking ? row + 4 : NULL);
    }
    set_release(&seen);
    set_release(&stalls);
    return rc;
}

/* Convenience lane entry point: throughput per lane as a double. */
int32_t probe_many(const int64_t *caps, int32_t lanes, double *out) {
    int64_t *raw = (int64_t *)malloc((size_t)(lanes > 0 ? lanes : 1) * 4 * sizeof(int64_t));
    if (!raw) return RC_NOMEM;
    int32_t rc = probe_many_exact(caps, lanes, DEFAULT_STALL_THRESHOLD,
                                  DEFAULT_MAX_FIRINGS, 0, raw);
    if (rc == RC_OK) {
        for (int32_t lane = 0; lane < lanes; lane++) {
            const int64_t *row = raw + (size_t)lane * 4;
            out[lane] = row[3] ? 0.0 : (double)row[0] / (double)row[1];
        }
    }
    free(raw);
    return rc;
}
"""
    return header + "\n" + body
