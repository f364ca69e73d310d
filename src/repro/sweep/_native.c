/* Native batch re-timing core for the sweep engine.
 *
 * A line-for-line transliteration of the pure-python hot loops in
 * repro/sweep/retime.py — simulate_compiled (the event-driven executor,
 * with or without fault replay), fill_compiled (the K-FAC bubble
 * filler), device_bubbles, and the utilization and bubble-fraction
 * folds — driven over a whole batch of duration tables sharing one
 * compiled template.  Two entries: repro_sim_batch and repro_fill_batch.
 *
 * Bit-identity contract: every float operation (additions along
 * dependency chains, tie-epsilon comparisons, min/max clips, fold
 * sums) is performed on IEEE-754 doubles in exactly the order the
 * python reference performs it, with contraction disabled (the build
 * uses -ffp-contract=off and no fast-math), so results match python
 * bit for bit.  Heap pops are deterministic because every heap key is
 * unique — ready heaps compare the packed int64 order_key, the event
 * heap compares (t_end, seq) — and a binary min-heap's pop sequence
 * depends only on the key multiset, not its internal layout.
 *
 * repro_sim_batch is the one event-loop entry.  Given failure tables it
 * replays DeviceFaults like simulate_compiled(faults=...): idle
 * failures delay starts, in-attempt failures lose the work since the
 * last global-time checkpoint (python float floordiv semantics,
 * replicated in py_floordiv), failures during restart downtime extend
 * the outage, and every consumed failure is recorded as a
 * (device, task, fail, resume, lost) restart row in append order.
 * The same pass folds each row's windowed utilization and, on request,
 * its bubble fraction, so no fold needs a second call.
 *
 * Anything this core cannot replicate exactly — tuple order keys,
 * filler errors (which carry python-built messages), or a buffer
 * overflow — is reported through per-point status codes and the
 * caller falls back to the python path for that point.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Executor tie epsilon.  Absolute: above ~8.2e3 s one ulp of a double
 * exceeds it, so tie batching is exact equality there.  Not widened (that
 * would merge distinct instants at small times); the filler's completion
 * test does not depend on it to terminate. */
#define TIME_EPS 1e-12
#define EPS 1e-9        /* filler placement epsilon */

/* status codes (per point) */
#define ST_OK 0
#define ST_DEADLOCK 1
#define ST_NO_BUBBLES 2
#define ST_NO_PROGRESS 3
#define ST_MAX_STEPS 4
#define ST_SEG_OVERFLOW 5
#define ST_REST_OVERFLOW 6

/* CPython float floordiv (floatobject.c float_divmod): fmod-based with
 * the sign adjustment and the 0.5-snap that keeps div an exact integer.
 * Needed for `(f // checkpoint_every) * checkpoint_every` bit-identity. */
static double py_floordiv(double vx, double wx) {
    double mod = fmod(vx, wx);
    double div = (vx - mod) / wx;
    if (mod != 0.0) {
        if ((wx < 0.0) != (mod < 0.0)) div -= 1.0;
    }
    if (div != 0.0) {
        double floordiv = floor(div);
        if (div - floordiv > 0.5) floordiv += 1.0;
        return floordiv;
    }
    return copysign(0.0, vx / wx);
}

typedef struct {
    int32_t n;             /* tasks */
    int32_t num_devices;
    int32_t n_keys;        /* distinct in-flight keys */
    int32_t n_zero;        /* zero-dep tasks */
    int32_t n_disp;        /* dispatched (device) tasks == len(ev_order) */
    const int32_t *device;     /* -1 for control tasks */
    const int64_t *order_key;  /* packed (priority, tid-rank), unique */
    const int32_t *ndeps;
    const int64_t *dep_off;    /* n+1 CSR offsets */
    const int32_t *dep_lst;
    const int32_t *ikey;       /* in-flight admission key id, -1 none */
    const int32_t *ilim;
    const int32_t *rkey;       /* released key id, -1 none */
    const int32_t *zero_dep;
    const int64_t *occ_off;    /* num_devices+1: occupying tasks CSR */
    const int32_t *occ_lst;
    const double *density;     /* COLOR_DENSITY per task */
} Graph;

typedef struct {
    int32_t num_devices;
    int32_t n_items;           /* total K-FAC items across devices */
    const int32_t *q_off;      /* num_devices+1: item offsets (global ids) */
    const int32_t *codes;      /* per global item: qdur code */
    const int32_t *trig;       /* per global item: pf trigger task, -1 deps */
    const int32_t *ndep_init;  /* per global item: len(dep_positions) */
    const int64_t *dep_out_off;/* n_items+1: dependents CSR (local pos) */
    const int32_t *dep_out;
    const double *qdensity;    /* COLOR_DENSITY per item kind */
} QDesc;

/* -- simulation ---------------------------------------------------------------- */

typedef struct {
    const Graph *g;
    const double *tdur;
    double *start, *end, *evend;
    int32_t *evorder;
    int n_ev;
    int32_t *missing;
    double *device_free;
    int64_t *rk;           /* ready heaps, device-major [D][n] */
    int32_t *rv;
    int32_t *rsz;
    int64_t *pk;           /* parked lists, key-major [K][n] */
    int32_t *pv;
    int32_t *psz;
    int32_t *inflight;
    double *et;            /* event heap */
    int32_t *es, *ei;
    int esz, seq;
    int32_t *stack;
    uint8_t *dirty;
    int remaining;
    /* fault replay (NULL f_times == no-fault path) */
    const int64_t *f_off;  /* this row's per-device CSR base, D+1 entries */
    const double *f_times; /* global failure-time pool */
    double f_delay, f_ckpt;
    int32_t *f_cur;        /* per-device failure cursor */
    int32_t *r_dev, *r_task;           /* restart rows, append order */
    double *r_fail, *r_resume, *r_lost;
    int r_cnt, r_cap, r_overflow;
} Sim;

static void rest_append(Sim *s, int dev, int idx, double f, double resume,
                        double lost) {
    if (s->r_cnt >= s->r_cap) { s->r_overflow = 1; return; }
    int k = s->r_cnt++;
    s->r_dev[k] = dev; s->r_task[k] = idx;
    s->r_fail[k] = f; s->r_resume[k] = resume; s->r_lost[k] = lost;
}

/* Transliteration of run_with_faults in retime.py: fold device `dev`'s
 * pending failures into one execution window.  Returns the start via
 * *st_out and the end as the return value. */
static double run_with_faults(Sim *s, int dev, double now, double dur,
                              int idx, double *st_out) {
    const double *times = s->f_times + s->f_off[dev];
    const int64_t n_times = s->f_off[dev + 1] - s->f_off[dev];
    int64_t cur = s->f_cur[dev];
    double st = now;
    while (cur < n_times && times[cur] <= st) {
        double f = times[cur];
        cur++;
        double resume = f + s->f_delay;
        if (resume > st) {
            rest_append(s, dev, idx, f, resume, 0.0);
            st = resume;
        }
    }
    double attempt = st;
    double left = dur;
    while (cur < n_times && times[cur] < attempt + left) {
        double f = times[cur];
        cur++;
        if (f <= attempt) {
            /* failure during restart downtime: outage extends, no new
             * work is lost */
            double resume = f + s->f_delay;
            if (resume > attempt) {
                rest_append(s, dev, idx, f, resume, 0.0);
                attempt = resume;
            }
            continue;
        }
        double done = f - attempt;
        double preserved = 0.0;
        if (s->f_ckpt > 0.0) {
            double last_ckpt = py_floordiv(f, s->f_ckpt) * s->f_ckpt;
            if (last_ckpt > attempt) {
                double cap = last_ckpt - attempt;
                preserved = done < cap ? done : cap;  /* min(done, cap) */
            }
        }
        left -= preserved;
        double resume = f + s->f_delay;
        rest_append(s, dev, idx, f, resume, done - preserved);
        attempt = resume;
    }
    s->f_cur[dev] = (int32_t)cur;
    *st_out = st;
    return attempt + left;
}

static void ready_push(Sim *s, int dev, int64_t key, int32_t val) {
    const int n = s->g->n;
    int64_t *K = s->rk + (size_t)dev * n;
    int32_t *V = s->rv + (size_t)dev * n;
    int i = s->rsz[dev]++;
    while (i > 0) {
        int p = (i - 1) >> 1;
        if (K[p] <= key) break;
        K[i] = K[p]; V[i] = V[p];
        i = p;
    }
    K[i] = key; V[i] = val;
}

static void ready_pop(Sim *s, int dev) {
    const int n = s->g->n;
    int64_t *K = s->rk + (size_t)dev * n;
    int32_t *V = s->rv + (size_t)dev * n;
    int m = --s->rsz[dev];
    int64_t key = K[m]; int32_t val = V[m];
    int i = 0;
    for (;;) {
        int c = 2 * i + 1;
        if (c >= m) break;
        if (c + 1 < m && K[c + 1] < K[c]) c++;
        if (K[c] >= key) break;
        K[i] = K[c]; V[i] = V[c];
        i = c;
    }
    if (m > 0) { K[i] = key; V[i] = val; }
}

static inline int evless(double t1, int32_t s1, double t2, int32_t s2) {
    return t1 < t2 || (t1 == t2 && s1 < s2);
}

static void ev_push(Sim *s, double t, int32_t sq, int32_t idx) {
    int i = s->esz++;
    while (i > 0) {
        int p = (i - 1) >> 1;
        if (!evless(t, sq, s->et[p], s->es[p])) break;
        s->et[i] = s->et[p]; s->es[i] = s->es[p]; s->ei[i] = s->ei[p];
        i = p;
    }
    s->et[i] = t; s->es[i] = sq; s->ei[i] = idx;
}

static int ev_pop(Sim *s) {
    int idx = s->ei[0];
    int m = --s->esz;
    double t = s->et[m]; int32_t sq = s->es[m], v = s->ei[m];
    int i = 0;
    for (;;) {
        int c = 2 * i + 1;
        if (c >= m) break;
        if (c + 1 < m && evless(s->et[c + 1], s->es[c + 1], s->et[c], s->es[c]))
            c++;
        if (!evless(s->et[c], s->es[c], t, sq)) break;
        s->et[i] = s->et[c]; s->es[i] = s->es[c]; s->ei[i] = s->ei[c];
        i = c;
    }
    if (m > 0) { s->et[i] = t; s->es[i] = sq; s->ei[i] = v; }
    return idx;
}

static void promote(Sim *s, int32_t idx, double now) {
    const Graph *g = s->g;
    int sp = 0;
    s->stack[sp++] = idx;
    while (sp) {
        int cur = s->stack[--sp];
        int dev = g->device[cur];
        if (dev < 0) {
            s->start[cur] = now;
            s->end[cur] = now;
            s->evend[cur] = now;
            s->remaining--;
            for (int64_t j = g->dep_off[cur]; j < g->dep_off[cur + 1]; j++) {
                int dep = g->dep_lst[j];
                if (--s->missing[dep] == 0) s->stack[sp++] = dep;
            }
        } else {
            ready_push(s, dev, g->order_key[cur], cur);
            s->dirty[dev] = 1;
        }
    }
}

static void finish(Sim *s, int idx, double t_end) {
    const Graph *g = s->g;
    s->end[idx] = t_end;
    s->remaining--;
    s->dirty[g->device[idx]] = 1;
    int rel = g->rkey[idx];
    if (rel >= 0) {
        s->inflight[rel]--;
        int m = s->psz[rel];
        if (m) {
            const int n = g->n;
            int64_t *K = s->pk + (size_t)rel * n;
            int32_t *V = s->pv + (size_t)rel * n;
            for (int j = 0; j < m; j++) {
                int dev = g->device[V[j]];
                ready_push(s, dev, K[j], V[j]);
                s->dirty[dev] = 1;
            }
            s->psz[rel] = 0;
        }
    }
    for (int64_t j = g->dep_off[idx]; j < g->dep_off[idx + 1]; j++) {
        int dep = g->dep_lst[j];
        if (--s->missing[dep] == 0) promote(s, dep, t_end);
    }
}

static void dispatch(Sim *s, int dev, double now) {
    const Graph *g = s->g;
    if (s->device_free[dev] > now + TIME_EPS) return;
    const int n = g->n;
    int64_t *K = s->rk + (size_t)dev * n;
    int32_t *V = s->rv + (size_t)dev * n;
    while (s->rsz[dev]) {
        int64_t key0 = K[0];
        int idx = V[0];
        int key = g->ikey[idx];
        if (key >= 0 && s->inflight[key] >= g->ilim[idx]) {
            ready_pop(s, dev);
            int m = s->psz[key]++;
            s->pk[(size_t)key * n + m] = key0;
            s->pv[(size_t)key * n + m] = idx;
            continue;
        }
        ready_pop(s, dev);
        if (key >= 0) s->inflight[key]++;
        double st, t_end;
        if (s->f_times == NULL) {
            st = now;
            t_end = now + s->tdur[idx];
        } else {
            t_end = run_with_faults(s, dev, now, s->tdur[idx], idx, &st);
        }
        s->device_free[dev] = t_end;
        s->start[idx] = st;
        s->evend[idx] = t_end;
        s->evorder[s->n_ev++] = idx;
        ev_push(s, t_end, s->seq++, idx);
        return;
    }
}

static int sim_one(const Graph *g, const double *tdur,
                   double *start, double *end, double *evend,
                   int32_t *evorder, double *mk_out, Sim *s) {
    const int n = g->n, D = g->num_devices, K = g->n_keys;
    memcpy(s->missing, g->ndeps, n * sizeof(int32_t));
    for (int i = 0; i < n; i++) { start[i] = 0.0; end[i] = 0.0; evend[i] = 0.0; }
    for (int d = 0; d < D; d++) s->device_free[d] = 0.0;
    memset(s->rsz, 0, D * sizeof(int32_t));
    if (K) {
        memset(s->psz, 0, K * sizeof(int32_t));
        memset(s->inflight, 0, K * sizeof(int32_t));
    }
    memset(s->dirty, 0, D);
    s->g = g; s->tdur = tdur;
    s->start = start; s->end = end; s->evend = evend;
    s->evorder = evorder; s->n_ev = 0;
    s->esz = 0; s->seq = 0;
    s->remaining = n;
    if (s->f_times) {
        memset(s->f_cur, 0, D * sizeof(int32_t));
        s->r_cnt = 0;
        s->r_overflow = 0;
    }

    for (int z = 0; z < g->n_zero; z++) promote(s, g->zero_dep[z], 0.0);
    for (int d = 0; d < D; d++)
        if (s->dirty[d]) { s->dirty[d] = 0; dispatch(s, d, 0.0); }

    while (s->esz) {
        double now = s->et[0];
        double thr = now + TIME_EPS;
        while (s->esz && s->et[0] <= thr)
            finish(s, ev_pop(s), now);
        for (int d = 0; d < D; d++)
            if (s->dirty[d]) { s->dirty[d] = 0; dispatch(s, d, now); }
    }
    if (s->remaining > 0) return ST_DEADLOCK;
    if (s->f_times && s->r_overflow) return ST_REST_OVERFLOW;
    double mk = end[0];
    for (int i = 1; i < n; i++)
        if (end[i] > mk) mk = end[i];
    *mk_out = mk;
    return ST_OK;
}

/* -- bubbles ------------------------------------------------------------------- */

typedef struct { double s, e; } Iv;

static int cmp_iv(const void *a, const void *b) {
    const Iv *x = (const Iv *)a, *y = (const Iv *)b;
    if (x->s < y->s) return -1;
    if (x->s > y->s) return 1;
    if (x->e < y->e) return -1;
    if (x->e > y->e) return 1;
    return 0;
}

/* device_bubbles: sort occupying (start, ev_end) pairs, merge with the
 * 1e-12 touch tolerance, complement within (0, span), drop <= min_bubble.
 * Returns the bubble count written into `idle`. */
static int bubbles_one(const Graph *g, const double *start,
                       const double *evend, int dev, double span,
                       double min_bubble, Iv *work, Iv *idle) {
    int m = 0;
    for (int64_t j = g->occ_off[dev]; j < g->occ_off[dev + 1]; j++) {
        int t = g->occ_lst[j];
        work[m].s = start[t];
        work[m].e = evend[t];
        m++;
    }
    qsort(work, m, sizeof(Iv), cmp_iv);
    int nm = 0;  /* merge in place into work[0..nm) */
    for (int k = 0; k < m; k++) {
        if (nm && work[k].s <= work[nm - 1].e + 1e-12) {
            if (work[k].e > work[nm - 1].e) work[nm - 1].e = work[k].e;
        } else {
            work[nm++] = work[k];
        }
    }
    int ni = 0;
    double cursor = 0.0;
    for (int k = 0; k < nm; k++) {
        double b0 = work[k].s, b1 = work[k].e;
        if (b0 >= span) break;
        double b0c = b0 > 0.0 ? b0 : 0.0;   /* max(b0, 0.0) */
        double b1c = b1 < span ? b1 : span; /* min(b1, span) */
        if (b0c > cursor) { idle[ni].s = cursor; idle[ni].e = b0c; ni++; }
        if (b1c > cursor) cursor = b1c;     /* cursor = max(cursor, b1c) */
    }
    if (cursor < span) { idle[ni].s = cursor; idle[ni].e = span; ni++; }
    int out = 0;
    for (int k = 0; k < ni; k++)
        if (idle[k].e - idle[k].s > min_bubble) idle[out++] = idle[k];
    return out;
}

/* -- bubble filler ------------------------------------------------------------- */

static inline int feasible(double remaining, double room, double min_chunk) {
    if (room < remaining - EPS)
        return !(room < min_chunk - EPS || remaining - room < min_chunk);
    return room > EPS;
}

typedef struct { double r; int32_t p; } Cand;

/* insert (r, p) keeping the array sorted ascending by (r, p) */
static void cand_insort(Cand *a, int *n, double r, int32_t p) {
    int lo = 0, hi = *n;
    while (lo < hi) {
        int mid = (lo + hi) >> 1;
        if (a[mid].r < r || (a[mid].r == r && a[mid].p < p)) lo = mid + 1;
        else hi = mid;
    }
    memmove(a + lo + 1, a + lo, (*n - lo) * sizeof(Cand));
    a[lo].r = r; a[lo].p = p;
    (*n)++;
}

static int cmp_cand(const void *x, const void *y) {
    const Cand *a = (const Cand *)x, *b = (const Cand *)y;
    if (a->r < b->r) return -1;
    if (a->r > b->r) return 1;
    if (a->p < b->p) return -1;
    if (a->p > b->p) return 1;
    return 0;
}

typedef struct {
    double *dur, *placed, *dep_max_end;
    int32_t *dep_count;
    Cand *future, *now;
    Iv *work, *idle;
    int32_t *seg_head, *seg_tail;  /* per global item chain */
    int32_t *seg_next;             /* per segment */
} FillWs;

/* Fill one point's queues.  Segments stream into (seg_item, seg_s, seg_e)
 * in placement order with per-item chains for the c_kfac fold. */
static int fill_one(const Graph *pf, const QDesc *q,
                    const double *start, const double *evend, double span,
                    const double *qd, int max_steps, double min_bubble,
                    double min_chunk, int seg_cap,
                    int32_t *dev_steps, int32_t *seg_item,
                    double *seg_s, double *seg_e, int32_t *seg_count,
                    double *c_kfac_out, FillWs *w) {
    const int D = q->num_devices;
    int nseg = 0;
    for (int i = 0; i < q->n_items; i++) w->seg_head[i] = -1;

    for (int dev = 0; dev < D; dev++) {
        int base = q->q_off[dev];
        int n = q->q_off[dev + 1] - base;
        if (n == 0) { dev_steps[dev] = 0; continue; }
        int nb = bubbles_one(pf, start, evend, dev, span, min_bubble,
                             w->work, w->idle);
        if (nb == 0) return ST_NO_BUBBLES;
        const Iv *bubbles0 = w->idle;
        double *dur = w->dur, *placed = w->placed;
        double *dep_max_end = w->dep_max_end;
        int32_t *dep_count = w->dep_count;
        for (int pos = 0; pos < n; pos++) {
            dur[pos] = qd[q->codes[base + pos]];
            placed[pos] = 0.0;
            dep_count[pos] = 0;
            dep_max_end[pos] = 0.0;
        }
        Cand *future = w->future, *now = w->now;
        int nf = 0, nn = 0;
        for (int pos = 0; pos < n; pos++) {
            int ti = q->trig[base + pos];
            if (ti >= 0) {
                future[nf].r = evend[ti] - span;
                future[nf].p = pos;
                nf++;
            } else {
                dep_count[pos] = q->ndep_init[base + pos];
            }
        }
        qsort(future, nf, sizeof(Cand), cmp_cand);

        int remaining = n;
        double last_placed_duration = -1.0;
        int steps_used = 0;
        int step;
        for (step = 0; step < max_steps; step++) {
            double offset = (double)step * span;
            for (int bi = 0; bi < nb; bi++) {
                double b1 = bubbles0[bi].e + offset;
                double t = bubbles0[bi].s + offset;
                for (;;) {
                    if (b1 - t <= EPS) break;
                    if (nf && future[0].r <= t) {
                        int k = 1;
                        while (k < nf && future[k].r <= t) k++;
                        for (int j = 0; j < k; j++)
                            cand_insort(now, &nn, -future[j].r, future[j].p);
                        memmove(future, future + k, (nf - k) * sizeof(Cand));
                        nf -= k;
                    }
                    int win_at = -1, win_pos = -1;
                    double win_ready = 0.0;
                    int from_future = 0;
                    double st = t;
                    double room_now = b1 - t;
                    for (int j = 0; j < nn; j++) {
                        int pos = now[j].p;
                        if (feasible(dur[pos] - placed[pos], room_now,
                                     min_chunk)) {
                            win_at = j; win_pos = pos;
                            win_ready = -now[j].r;
                            break;
                        }
                    }
                    if (win_pos < 0) {
                        for (int j = 0; j < nf; j++) {
                            double r = future[j].r;
                            if (r >= b1) break;
                            int pos = future[j].p;
                            if (feasible(dur[pos] - placed[pos], b1 - r,
                                         min_chunk)) {
                                win_at = j; win_pos = pos; win_ready = r;
                                st = r;
                                from_future = 1;
                                break;
                            }
                        }
                    }
                    if (win_pos < 0) break;
                    double rem = dur[win_pos] - placed[win_pos];
                    double room = b1 - st;
                    /* Completion follows from the branch taken, never from
                     * re-subtracting placed: far from 0, st + rem can round
                     * back to st (see TIME_EPS) and the item would spin. */
                    double piece;
                    int done;
                    if (rem < room) {
                        piece = rem;
                        done = 1;
                    } else {
                        /* fills the bubble; a sliver <= TIME_EPS is done */
                        piece = room;
                        done = rem - room <= TIME_EPS;
                    }
                    double e = st + piece;
                    if (!done && e <= t) return ST_NO_PROGRESS;
                    if (nseg >= seg_cap) return ST_SEG_OVERFLOW;
                    int gi = base + win_pos;
                    seg_item[nseg] = gi;
                    seg_s[nseg] = st;
                    seg_e[nseg] = e;
                    w->seg_next[nseg] = -1;
                    if (w->seg_head[gi] < 0) w->seg_head[gi] = nseg;
                    else w->seg_next[w->seg_tail[gi]] = nseg;
                    w->seg_tail[gi] = nseg;
                    nseg++;
                    placed[win_pos] = placed[win_pos] + (e - st);
                    t = e;
                    if (done) {
                        remaining--;
                        if (from_future) {
                            memmove(future + win_at, future + win_at + 1,
                                    (nf - win_at - 1) * sizeof(Cand));
                            nf--;
                        } else {
                            memmove(now + win_at, now + win_at + 1,
                                    (nn - win_at - 1) * sizeof(Cand));
                            nn--;
                        }
                        double item_end = e;
                        for (int64_t dj = q->dep_out_off[gi];
                             dj < q->dep_out_off[gi + 1]; dj++) {
                            int dpos = q->dep_out[dj];
                            dep_count[dpos]--;
                            if (item_end > dep_max_end[dpos])
                                dep_max_end[dpos] = item_end;
                            if (dep_count[dpos] == 0)
                                cand_insort(future, &nf, dep_max_end[dpos],
                                            dpos);
                        }
                    } else if (from_future) {
                        memmove(future + win_at, future + win_at + 1,
                                (nf - win_at - 1) * sizeof(Cand));
                        nf--;
                        cand_insort(now, &nn, -win_ready, win_pos);
                    }
                }
                if (remaining == 0) { steps_used = step + 1; break; }
            }
            if (remaining == 0) { steps_used = step + 1; break; }
            double total = 0.0;
            for (int pos = 0; pos < n; pos++) total += placed[pos];
            if (total <= last_placed_duration + EPS) return ST_NO_PROGRESS;
            last_placed_duration = total;
        }
        if (remaining != 0) return ST_MAX_STEPS;
        dev_steps[dev] = steps_used;
    }
    *seg_count = nseg;

    /* c_kfac: devices ascending, items in inventory order, segments in
     * placement order — the reference _pf_utilization fold order. */
    double c_kfac = 0.0;
    for (int gi = 0; gi < q->n_items; gi++) {
        double rho = q->qdensity[gi];
        for (int si = w->seg_head[gi]; si >= 0; si = w->seg_next[si])
            c_kfac += (seg_e[si] - seg_s[si]) * rho;
    }
    *c_kfac_out = c_kfac;
    return ST_OK;
}

/* -- per-row folds ------------------------------------------------------------- */

/* _windowed_utilization in engine.py: colored busy time of every
 * dispatched task clipped to (0, t1), in dispatch order. */
static double windowed_util(const Graph *g, const double *start,
                            const double *evend, const int32_t *evorder,
                            double t1) {
    double total = 0.0;
    for (int k = 0; k < g->n_disp; k++) {
        int i = evorder[k];
        double e = evend[i], s = start[i];
        if (e <= 0.0 || s >= t1) continue;
        double ee = e < t1 ? e : t1;   /* min(e, t1) */
        double ss = s > 0.0 ? s : 0.0; /* max(s, 0.0) */
        total += (ee - ss) * g->density[i];
    }
    return total / ((double)g->num_devices * (t1 - 0.0));
}

/* compiled_bubble_fraction in mc.py: every device's idle intervals over
 * (0, span) with no minimum-bubble cutoff, over total device-time. */
static double bubble_fraction(const Graph *g, const double *start,
                              const double *evend, double span,
                              Iv *work, Iv *idle) {
    double idle_total = 0.0;
    for (int dev = 0; dev < g->num_devices; dev++) {
        int ni = bubbles_one(g, start, evend, dev, span, 0.0, work, idle);
        for (int k = 0; k < ni; k++)
            idle_total += idle[k].e - idle[k].s;
    }
    return idle_total / ((double)g->num_devices * span);
}

/* -- exported batch entry points ------------------------------------------------ */

/* The event loop over P duration rows (row stride n) in one call.
 *
 * NULL ft_off is the no-fault path: no failure tables, no restart rows
 * (the restart outputs may be NULL too).  Otherwise each row has its
 * own per-device failure-time table (global CSR: ft_off[p*D+d] ..
 * ft_off[p*D+d+1] slice ft_times), restart delay, and checkpoint
 * interval.  Rows with empty tables run the exact same arithmetic as
 * the no-fault path (st = now, end = now + dur), so mixed batches need
 * no splitting.  Restart rows stream into (rest_dev, rest_task,
 * rest_fail, rest_resume, rest_lost) at row stride rest_cap in append
 * order; rest_count[p] rows are valid.  Each failure time is consumed
 * at most once per row (the cursor is monotone), so rest_cap = max
 * per-row failure total is an exact bound; ST_REST_OVERFLOW is a
 * defensive per-row status all the same.
 *
 * Every OK row also gets its windowed utilization in util[p] and, when
 * bubble is non-NULL, its bubble fraction in bubble[p] (the bubble
 * scan costs about as much as the simulation, so it is opt-in).
 *
 * Returns non-zero, writing no status, if a work buffer cannot be
 * allocated; the caller presets status to a failure code. */
int repro_sim_batch(const Graph *g, int32_t P, const double *td,
                    const int64_t *ft_off, const double *ft_times,
                    const double *delay, const double *ckpt,
                    int32_t rest_cap,
                    double *start, double *end, double *evend,
                    int32_t *evorder, double *mk, double *util,
                    double *bubble,
                    int32_t *rest_dev, int32_t *rest_task,
                    double *rest_fail, double *rest_resume,
                    double *rest_lost, int32_t *rest_count,
                    int32_t *status) {
    const int n = g->n, D = g->num_devices, K = g->n_keys > 0 ? g->n_keys : 1;
    const int faulty = ft_off != NULL;
    int rc = -1;
    int occ_max = 0;
    if (bubble)
        for (int d = 0; d < D; d++) {
            int o = (int)(g->occ_off[d + 1] - g->occ_off[d]);
            if (o > occ_max) occ_max = o;
        }
    Sim s;
    s.f_times = faulty ? ft_times : NULL;
    s.r_cap = rest_cap;
    s.r_cnt = 0;
    s.missing = malloc((size_t)n * sizeof(int32_t));
    s.device_free = malloc((size_t)D * sizeof(double));
    s.rk = malloc((size_t)D * n * sizeof(int64_t));
    s.rv = malloc((size_t)D * n * sizeof(int32_t));
    s.rsz = malloc((size_t)D * sizeof(int32_t));
    s.pk = malloc((size_t)K * n * sizeof(int64_t));
    s.pv = malloc((size_t)K * n * sizeof(int32_t));
    s.psz = malloc((size_t)K * sizeof(int32_t));
    s.inflight = malloc((size_t)K * sizeof(int32_t));
    s.et = malloc((size_t)n * sizeof(double));
    s.es = malloc((size_t)n * sizeof(int32_t));
    s.ei = malloc((size_t)n * sizeof(int32_t));
    s.stack = malloc((size_t)n * sizeof(int32_t));
    s.dirty = malloc((size_t)D);
    s.f_cur = faulty ? malloc((size_t)D * sizeof(int32_t)) : NULL;
    Iv *work = bubble ? malloc((size_t)(occ_max + 2) * sizeof(Iv)) : NULL;
    Iv *idle = bubble ? malloc((size_t)(occ_max + 2) * sizeof(Iv)) : NULL;
    if (!s.missing || !s.device_free || !s.rk || !s.rv || !s.rsz || !s.pk
        || !s.pv || !s.psz || !s.inflight || !s.et || !s.es || !s.ei
        || !s.stack || !s.dirty || (faulty && !s.f_cur)
        || (bubble && (!work || !idle)))
        goto done;
    for (int p = 0; p < P; p++) {
        if (faulty) {
            s.f_off = ft_off + (size_t)p * D;
            s.f_delay = delay[p];
            s.f_ckpt = ckpt[p];
            s.r_dev = rest_dev + (size_t)p * rest_cap;
            s.r_task = rest_task + (size_t)p * rest_cap;
            s.r_fail = rest_fail + (size_t)p * rest_cap;
            s.r_resume = rest_resume + (size_t)p * rest_cap;
            s.r_lost = rest_lost + (size_t)p * rest_cap;
        }
        double *ps = start + (size_t)p * n, *pe = evend + (size_t)p * n;
        int32_t *pev = evorder + (size_t)p * g->n_disp;
        status[p] = sim_one(g, td + (size_t)p * n, ps, end + (size_t)p * n,
                            pe, pev, mk + p, &s);
        if (faulty) rest_count[p] = s.r_cnt;
        if (status[p] != ST_OK) continue;
        util[p] = windowed_util(g, ps, pe, pev, mk[p]);
        if (bubble) bubble[p] = bubble_fraction(g, ps, pe, mk[p], work, idle);
    }
    rc = 0;
done:
    free(s.missing); free(s.device_free); free(s.rk); free(s.rv);
    free(s.rsz); free(s.pk); free(s.pv); free(s.psz); free(s.inflight);
    free(s.et); free(s.es); free(s.ei); free(s.stack); free(s.dirty);
    free(s.f_cur); free(work); free(idle);
    return rc;
}

int repro_fill_batch(const Graph *pf, const QDesc *q, int32_t P,
                     const double *start, const double *evend,
                     const double *mk, const double *qd,
                     const int32_t *evorder, int32_t max_steps,
                     double min_bubble, double min_chunk, int32_t seg_cap,
                     int32_t *dev_steps, int32_t *refresh,
                     int32_t *seg_item, double *seg_s, double *seg_e,
                     int32_t *seg_count, double *pf_util, int32_t *status) {
    const int n = pf->n, D = pf->num_devices;
    int n_items_max = 0, occ_max = 0;
    for (int d = 0; d < D; d++) {
        int m = q->q_off[d + 1] - q->q_off[d];
        if (m > n_items_max) n_items_max = m;
        int o = (int)(pf->occ_off[d + 1] - pf->occ_off[d]);
        if (o > occ_max) occ_max = o;
    }
    if (n_items_max < 1) n_items_max = 1;
    int rc = -1;
    FillWs w;
    w.dur = malloc((size_t)n_items_max * sizeof(double));
    w.placed = malloc((size_t)n_items_max * sizeof(double));
    w.dep_max_end = malloc((size_t)n_items_max * sizeof(double));
    w.dep_count = malloc((size_t)n_items_max * sizeof(int32_t));
    w.future = malloc((size_t)(n_items_max + 1) * sizeof(Cand));
    w.now = malloc((size_t)(n_items_max + 1) * sizeof(Cand));
    w.work = malloc((size_t)(occ_max + 2) * sizeof(Iv));
    w.idle = malloc((size_t)(occ_max + 2) * sizeof(Iv));
    w.seg_head = malloc((size_t)(q->n_items > 0 ? q->n_items : 1)
                        * sizeof(int32_t));
    w.seg_tail = malloc((size_t)(q->n_items > 0 ? q->n_items : 1)
                        * sizeof(int32_t));
    w.seg_next = malloc((size_t)(seg_cap > 0 ? seg_cap : 1)
                        * sizeof(int32_t));
    if (!w.dur || !w.placed || !w.dep_max_end || !w.dep_count || !w.future
        || !w.now || !w.work || !w.idle || !w.seg_head || !w.seg_tail
        || !w.seg_next)
        goto done;
    for (int p = 0; p < P; p++) {
        double c_kfac = 0.0;
        int st = fill_one(pf, q, start + (size_t)p * n,
                          evend + (size_t)p * n, mk[p], qd + (size_t)p * 4,
                          max_steps, min_bubble, min_chunk, seg_cap,
                          dev_steps + (size_t)p * D,
                          seg_item + (size_t)p * seg_cap,
                          seg_s + (size_t)p * seg_cap,
                          seg_e + (size_t)p * seg_cap,
                          seg_count + p, &c_kfac, &w);
        status[p] = st;
        if (st != ST_OK) continue;
        int32_t *steps = dev_steps + (size_t)p * D;
        int r = 1;
        for (int d = 0; d < D; d++)
            if (steps[d] > r) r = steps[d];
        refresh[p] = r;
        const double *pstart = start + (size_t)p * n;
        const double *pevend = evend + (size_t)p * n;
        const int32_t *pev = evorder + (size_t)p * pf->n_disp;
        double c_template = 0.0;
        for (int k = 0; k < pf->n_disp; k++) {
            int i = pev[k];
            c_template += (pevend[i] - pstart[i]) * pf->density[i];
        }
        double pf_colored = (double)r * c_template + c_kfac;
        pf_util[p] = pf_colored / ((double)(pf->num_devices * r) * mk[p]);
    }
    rc = 0;
done:
    free(w.dur); free(w.placed); free(w.dep_max_end); free(w.dep_count);
    free(w.future); free(w.now); free(w.work); free(w.idle);
    free(w.seg_head); free(w.seg_tail); free(w.seg_next);
    return rc;
}
