"""C source of the probe kernel behind the ``"cc"`` backend.

One translation unit serves every graph: the graph arrives at each
call as a struct of tables, so a host compiles the kernel once
(:mod:`repro.engine.ccore` owns compiling, caching and binding).  The
paper's ``buffy`` emits a program per graph so that each probe is cheap
(Sec. 10); here the tables cost no measurable probe time, and the
per-graph compile they replace was the largest single cost of a
default run.

The kernel exports:

``int64_t repro_kernel_abi(void)``
    The loader handshake: :data:`KERNEL_ABI`, checked before a cached
    shared object is trusted.
``int32_t probe_many_exact(const Graph *g, const int64_t *caps,
int32_t lanes, int64_t stall_threshold, int64_t max_firings,
int32_t blocking, int64_t *out)``
    The batched entry point.  ``g`` holds the actor count, channel
    count, observed actor and eight tables: execution time per actor,
    initial tokens and consumption/production rate per channel, and
    each actor's input and output channels as offset/index arrays.
    ``caps`` is ``lanes * channels`` capacities (unbounded channels
    carry a huge sentinel); ``out`` receives per lane four ``int64`` —
    firings-in-cycle, cycle-duration, states-stored, deadlocked —
    followed, when *blocking* is set, by one minimal space deficit per
    channel (0: the channel never blocked a firing on space).
    Throughput is reconstructed host-side as the exact
    ``Fraction(firings, duration)``.  Returns 0 or one of the ``RC_*``
    failure codes: the per-instant firing guard tripped (diverging
    zero-time cascade), allocation failed, a completion time or a
    cycle sum would overflow ``int64``, or the visited set outgrew its
    ``int32`` record index.

The kernel keeps no globals: scratch memory is allocated per call, so
pool workers and the service's threads share one loaded object.

Execution semantics are exactly those of
:class:`repro.engine.fastcore.FastKernel`: tokens are consumed *and*
produced at the end of a firing, enabled firings start as a fixpoint
over zero-execution-time cascades (sound by confluence — each channel
has a unique producer and consumer), reduced states ``(relative
clocks, tokens, distance, firings)`` are recorded whenever the
observed actor completes a firing, a revisited state closes the
periodic phase, and ``stall_threshold`` observation-free instants arm
a full-state recurrence check that reports starvation as throughput
zero.  In blocking mode every failed start check of an idle actor
without a token shortage records, per full output channel, the deficit
``tokens + rate - capacity``, keeping the minimum per channel — the
reference executor's ``track_blocking`` data.  The scan visits idle
actors in index order, pass by pass, as the reference does, so the
intermediate states of zero-time cascades are seen in the same order.
"""

from __future__ import annotations

#: ABI stamp compiled into the kernel (``repro_kernel_abi()``); the
#: loader refuses shared objects reporting anything else, which turns
#: truncated or foreign files in the cache into a clean rebuild.  Bump
#: it with any change to the ``Graph`` struct or the entry point.
KERNEL_ABI = 3

SOURCE = f"""\
/* Probe kernel of repro's "cc" backend, ABI {KERNEL_ABI}: one translation
 * unit for every graph, which arrives as a struct of tables.
 *
 * Self-timed bounded execution to the periodic phase, bit-identical
 * to repro.engine.executor (tokens move at firing END; zero-time
 * cascades run to a fixpoint; reduced-state recurrence closes the
 * cycle; stall_threshold observation-free instants arm starvation
 * detection on full states).
 */
#define KERNEL_ABI {KERNEL_ABI}
""" + r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define RC_OK 0
#define RC_CASCADE 1         /* per-instant firing guard tripped */
#define RC_NOMEM 2
#define RC_TIME_OVERFLOW 3   /* a completion time exceeds int64 */
#define RC_CYCLE_OVERFLOW 4  /* a cycle's firings or duration exceed int64 */
#define RC_STATE_LIMIT 5     /* the visited set outgrew its int32 index */

/* Largest record count of a visited set: its open-addressing table
 * (at most 3/4 full) then still fits an int32 size and index. */
#define MAX_RECORDS (1 << 29)

/* Keeps the blocking-mode helper out of the scan loop. */
#if defined(__GNUC__) || defined(__clang__)
#define NOINLINE __attribute__((noinline))
#else
#define NOINLINE
#endif

/* The graph: sizes, observed actor and tables (read only). */
typedef struct Graph {
    int32_t actors;
    int32_t channels;
    int32_t observe;                /* index of the observed actor */
    const int64_t *exec_time;       /* per actor */
    const int64_t *initial_tokens;  /* per channel */
    const int64_t *cons_rate;       /* per channel: tokens its consumer takes */
    const int64_t *prod_rate;       /* per channel: tokens its producer adds */
    const int32_t *in_off;          /* per actor + 1: offsets into in_ch */
    const int32_t *in_ch;           /* input channels, actor by actor */
    const int32_t *out_off;         /* per actor + 1: offsets into out_ch */
    const int32_t *out_ch;          /* output channels, actor by actor */
} Graph;

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
NOINLINE static void note_space_blocked(const Graph *g, int32_t a, const int64_t *tokens,
                                        const int64_t *caps, int64_t *deficits) {
    for (int32_t k = g->in_off[a]; k < g->in_off[a + 1]; k++)
        if (tokens[g->in_ch[k]] < g->cons_rate[g->in_ch[k]]) return;
    for (int32_t k = g->out_off[a]; k < g->out_off[a + 1]; k++) {
        int32_t c = g->out_ch[k];
        int64_t excess = tokens[c] + g->prod_rate[c] - caps[c];
        if (excess > 0 && (deficits[c] == 0 || excess < deficits[c])) deficits[c] = excess;
    }
}

/* out: {firings_in_cycle, cycle_duration, states_stored, deadlocked};
 * deficits: one minimal space deficit per channel, or NULL (plain
 * lanes).  tokens, completion and key are the caller's scratch. */
static int32_t run_one(const Graph *g, const int64_t *caps, int64_t stall_threshold,
                       int64_t max_firings, StateSet *seen, StateSet *stalls,
                       int64_t *tokens, int64_t *completion, int64_t *key,
                       int64_t *out, int64_t *deficits) {
    const int32_t n = g->actors, m = g->channels, observe = g->observe;
    const int64_t *exec_time = g->exec_time, *cons_rate = g->cons_rate,
                  *prod_rate = g->prod_rate;
    const int32_t *in_off = g->in_off, *in_ch = g->in_ch;
    const int32_t *out_off = g->out_off, *out_ch = g->out_ch;
    int64_t time = 0, last_firing = 0, idle_streak = 0;

    set_clear(seen);
    set_clear(stalls);
    for (int32_t c = 0; c < m; c++) tokens[c] = g->initial_tokens[c];
    for (int32_t a = 0; a < n; a++) completion[a] = -1;
    if (deficits) memset(deficits, 0, (size_t)m * sizeof(int64_t));

    for (;;) {
        /* 1. complete due firings: tokens are consumed AND produced at
         * the END of a firing, one observed completion per event. */
        int64_t observed = 0;
        for (int32_t a = 0; a < n; a++) {
            if (completion[a] != time) continue;
            completion[a] = -1;
            for (int32_t k = in_off[a]; k < in_off[a + 1]; k++)
                tokens[in_ch[k]] -= cons_rate[in_ch[k]];
            for (int32_t k = out_off[a]; k < out_off[a + 1]; k++)
                tokens[out_ch[k]] += prod_rate[out_ch[k]];
            if (a == observe) observed++;
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
            for (int32_t a = 0; a < n; a++) {
                if (completion[a] >= 0) continue;  /* busy */
                int32_t enabled = 1;
                for (int32_t k = in_off[a]; enabled && k < in_off[a + 1]; k++)
                    if (tokens[in_ch[k]] < cons_rate[in_ch[k]]) enabled = 0;
                for (int32_t k = out_off[a]; enabled && k < out_off[a + 1]; k++)
                    if (tokens[out_ch[k]] + prod_rate[out_ch[k]] > caps[out_ch[k]]) enabled = 0;
                if (!enabled) {
                    if (deficits) note_space_blocked(g, a, tokens, caps, deficits);
                    continue;
                }
                if (++fired > max_firings) return RC_CASCADE;
                if (exec_time[a] == 0) {
                    /* fire-and-finish: zero-time firings move their
                     * tokens immediately and may cascade */
                    for (int32_t k = in_off[a]; k < in_off[a + 1]; k++)
                        tokens[in_ch[k]] -= cons_rate[in_ch[k]];
                    for (int32_t k = out_off[a]; k < out_off[a + 1]; k++)
                        tokens[out_ch[k]] += prod_rate[out_ch[k]];
                    if (a == observe) observed++;
                    changed = 1;
                } else {
                    /* INT64_MAX stays free: it means "nothing running" */
                    if (exec_time[a] >= INT64_MAX - time) return RC_TIME_OVERFLOW;
                    completion[a] = time + exec_time[a];
                }
            }
        }

        /* 3. record / stall bookkeeping */
        if (observed > 0) {
            int64_t distance = time - last_firing;
            last_firing = time;
            idle_streak = 0;
            if (stalls->count) set_clear(stalls);
            for (int32_t a = 0; a < n; a++)
                key[a] = completion[a] >= 0 ? completion[a] - time : 0;
            for (int32_t c = 0; c < m; c++) key[n + c] = tokens[c];
            key[n + m] = distance;
            key[n + m + 1] = observed;
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
                for (int32_t a = 0; a < n; a++)
                    key[a] = completion[a] >= 0 ? completion[a] - time : 0;
                for (int32_t c = 0; c < m; c++) key[n + c] = tokens[c];
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
        for (int32_t a = 0; a < n; a++)
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

/* Exact batched entry point: caps is lanes * g->channels capacities,
 * out receives 4 int64 per lane (firings, duration, states, dead),
 * followed with *blocking* by the lane's minimal deficit per channel. */
int32_t probe_many_exact(const Graph *g, const int64_t *caps, int32_t lanes,
                         int64_t stall_threshold, int64_t max_firings,
                         int32_t blocking, int64_t *out) {
    const size_t n = (size_t)g->actors, m = (size_t)g->channels;
    const size_t stride = 4 + (blocking ? m : 0);
    /* per-call scratch: tokens (m), completion times (n), a state key
     * (clocks, tokens, distance, firings) */
    int64_t *scratch = (int64_t *)malloc((2 * (n + m) + 2) * sizeof(int64_t));
    if (!scratch) return RC_NOMEM;
    StateSet seen, stalls;
    int32_t rc = set_init(&seen, (int32_t)(n + m + 2), 1);
    if (rc == RC_OK) rc = set_init(&stalls, (int32_t)(n + m), 0);
    else memset(&stalls, 0, sizeof(StateSet));
    for (int32_t lane = 0; rc == RC_OK && lane < lanes; lane++) {
        int64_t *row = out + (size_t)lane * stride;
        rc = run_one(g, caps + (size_t)lane * m, stall_threshold, max_firings,
                     &seen, &stalls, scratch, scratch + m, scratch + m + n,
                     row, blocking ? row + 4 : NULL);
    }
    set_release(&seen);
    set_release(&stalls);
    free(scratch);
    return rc;
}
"""
