/* Compiled inner loops for repro.core.kernels.
 *
 * Built on first use by ccore.py with
 *     cc -O2 -fPIC -shared -ffp-contract=off
 * and loaded through ctypes.  Every loop mirrors its reference solver
 * operation for operation: the same double expressions in the same order
 * (no FMA contraction, no reassociation at -O2), the same strict-<
 * first-minimum tie-breaks, the same traversal order.  Python int -> C
 * double conversions are exact for the magnitudes involved, so the
 * compiled results are bit-identical to the interpreter's.
 */

#include <math.h>
#include <stdlib.h>

#define MAX_COLORS 64 /* mirrored by MAX_COMPILED_COLORS on the python side */

/* Greedy coloring walk (greedy_coloring.greedy_color_graph).
 *
 * colors[] must arrive initialised to -1; order[] is the processing order
 * over vertex ranks; CSR rows are sorted ascending.
 */
void repro_greedy_walk(
    int n, int num_colors, double alpha, const int *order,
    const int *conf_start, const int *conf_adj,
    const int *stitch_start, const int *stitch_adj,
    int *colors)
{
    int conflict_hits[MAX_COLORS];
    int stitch_hits[MAX_COLORS];
    for (int k = 0; k < n; k++) {
        int rank = order[k];
        for (int c = 0; c < num_colors; c++) {
            conflict_hits[c] = 0;
            stitch_hits[c] = 0;
        }
        for (int i = conf_start[rank]; i < conf_start[rank + 1]; i++) {
            int other = colors[conf_adj[i]];
            if (other >= 0)
                conflict_hits[other] += 1;
        }
        int colored_stitches = 0;
        for (int i = stitch_start[rank]; i < stitch_start[rank + 1]; i++) {
            int other = colors[stitch_adj[i]];
            if (other >= 0) {
                stitch_hits[other] += 1;
                colored_stitches += 1;
            }
        }
        int best = 0;
        double best_cost =
            conflict_hits[0] + alpha * (double)(colored_stitches - stitch_hits[0]);
        for (int c = 1; c < num_colors; c++) {
            double cost =
                conflict_hits[c] + alpha * (double)(colored_stitches - stitch_hits[c]);
            if (cost < best_cost) {
                best_cost = cost;
                best = c;
            }
        }
        colors[rank] = best;
    }
}

/* Kernel coloring walk (LinearColoring._color_in_order / _pick_color).
 *
 * Same hit counters as the greedy walk plus the color-friendly counter;
 * the color pick replicates the python tuple comparison
 * (conflict_hits, alpha * stitch_mismatch, -friend_hits) with strict <.
 */
void repro_linear_walk(
    int num_colors, double alpha, int use_friendly,
    const int *order, int order_len,
    const int *conf_start, const int *conf_adj,
    const int *stitch_start, const int *stitch_adj,
    const int *friend_start, const int *friend_adj,
    int *colors)
{
    int conflict_hits[MAX_COLORS];
    int stitch_hits[MAX_COLORS];
    int friend_hits[MAX_COLORS];
    for (int k = 0; k < order_len; k++) {
        int rank = order[k];
        for (int c = 0; c < num_colors; c++) {
            conflict_hits[c] = 0;
            stitch_hits[c] = 0;
            friend_hits[c] = 0;
        }
        for (int i = conf_start[rank]; i < conf_start[rank + 1]; i++) {
            int other = colors[conf_adj[i]];
            if (other >= 0)
                conflict_hits[other] += 1;
        }
        int colored_stitches = 0;
        for (int i = stitch_start[rank]; i < stitch_start[rank + 1]; i++) {
            int other = colors[stitch_adj[i]];
            if (other >= 0) {
                stitch_hits[other] += 1;
                colored_stitches += 1;
            }
        }
        if (use_friendly) {
            for (int i = friend_start[rank]; i < friend_start[rank + 1]; i++) {
                int other = colors[friend_adj[i]];
                if (other >= 0)
                    friend_hits[other] += 1;
            }
        }
        int best = 0;
        int best_conf = conflict_hits[0];
        double best_stitch = alpha * (double)(colored_stitches - stitch_hits[0]);
        int best_friend = -friend_hits[0];
        for (int c = 1; c < num_colors; c++) {
            int conf = conflict_hits[c];
            double stitch = alpha * (double)(colored_stitches - stitch_hits[c]);
            int friendly = -friend_hits[c];
            /* python tuple <: lexicographic with strict inequality */
            if (conf < best_conf ||
                (conf == best_conf &&
                 (stitch < best_stitch ||
                  (stitch == best_stitch && friendly < best_friend)))) {
                best_conf = conf;
                best_stitch = stitch;
                best_friend = friendly;
                best = c;
            }
        }
        colors[rank] = best;
    }
}

/* Kernel-subgraph score (evaluation.evaluate): conflict/stitch counts
 * over the flat uint32 edge-pair arrays, uncolored (-1) endpoints skipped. */
void repro_evaluate(
    const unsigned int *conf_edges, int conf_len,
    const unsigned int *stitch_edges, int stitch_len,
    const int *colors, int *conflicts_out, int *stitches_out)
{
    int conflicts = 0;
    for (int i = 0; i < conf_len; i += 2) {
        int cu = colors[conf_edges[i]];
        if (cu >= 0 && cu == colors[conf_edges[i + 1]])
            conflicts += 1;
    }
    int stitches = 0;
    for (int i = 0; i < stitch_len; i += 2) {
        int cu = colors[stitch_edges[i]];
        int cv = colors[stitch_edges[i + 1]];
        if (cu >= 0 && cv >= 0 && cu != cv)
            stitches += 1;
    }
    *conflicts_out = conflicts;
    *stitches_out = stitches;
}

/* Local recolor cost (refinement.local_color_cost). */
static double local_cost(
    int rank, int color, double alpha, const int *colors,
    const int *conf_start, const int *conf_adj,
    const int *stitch_start, const int *stitch_adj)
{
    int conflicts = 0;
    for (int i = conf_start[rank]; i < conf_start[rank + 1]; i++) {
        if (colors[conf_adj[i]] == color)
            conflicts += 1;
    }
    int stitches = 0;
    for (int i = stitch_start[rank]; i < stitch_start[rank + 1]; i++) {
        int other = colors[stitch_adj[i]];
        if (other >= 0 && other != color)
            stitches += 1;
    }
    return conflicts + alpha * (double)stitches;
}

/* One greedy improvement pass (refinement.refine_coloring),
 * including the reference's `cost < best_cost - 1e-12` epsilon. */
void repro_refine_pass(
    int num_colors, double alpha,
    const int *kernel, int kernel_len,
    const int *conf_start, const int *conf_adj,
    const int *stitch_start, const int *stitch_adj,
    int *colors)
{
    for (int k = 0; k < kernel_len; k++) {
        int rank = kernel[k];
        int current = colors[rank];
        int best_color = current;
        double best_cost = local_cost(
            rank, current, alpha, colors,
            conf_start, conf_adj, stitch_start, stitch_adj);
        for (int color = 0; color < num_colors; color++) {
            if (color == current)
                continue;
            double cost = local_cost(
                rank, color, alpha, colors,
                conf_start, conf_adj, stitch_start, stitch_adj);
            if (cost < best_cost - 1e-12) {
                best_cost = cost;
                best_color = color;
            }
        }
        if (best_color != current)
            colors[rank] = best_color;
    }
}

/* Pop the peel stack (simplify.reinsert_peeled_vertices): stack entries are
 * visited last-pushed-first; each takes a stitch-preferred legal color. */
void repro_reinsert(
    int num_colors,
    const int *stack, int stack_len,
    const int *conf_start, const int *conf_adj,
    const int *stitch_start, const int *stitch_adj,
    int *colors)
{
    for (int k = stack_len - 1; k >= 0; k--) {
        int rank = stack[k];
        unsigned long long blocked = 0;
        for (int i = conf_start[rank]; i < conf_start[rank + 1]; i++) {
            int other = colors[conf_adj[i]];
            if (other >= 0)
                blocked |= 1ULL << other;
        }
        int picked = -1;
        for (int i = stitch_start[rank]; i < stitch_start[rank + 1]; i++) {
            int color = colors[stitch_adj[i]];
            if (color >= 0 && !(blocked & (1ULL << color))) {
                picked = color;
                break;
            }
        }
        if (picked < 0) {
            for (int color = 0; color < num_colors; color++) {
                if (!(blocked & (1ULL << color))) {
                    picked = color;
                    break;
                }
            }
        }
        if (picked < 0) {
            int damage[MAX_COLORS];
            for (int color = 0; color < num_colors; color++)
                damage[color] = 0;
            for (int i = conf_start[rank]; i < conf_start[rank + 1]; i++) {
                int other = colors[conf_adj[i]];
                if (other >= 0)
                    damage[other] += 1;
            }
            picked = 0;
            for (int color = 1; color < num_colors; color++) {
                if (damage[color] < damage[picked])
                    picked = color;
            }
        }
        colors[rank] = picked;
    }
}

/* Iterative low-degree vertex removal (simplify.peel_low_degree_vertices).
 *
 * Fills alive/cdeg/sdeg/fdeg and the removal stack; returns the stack
 * length, or -1 on allocation failure (the caller runs the reference).
 * The queue is LIFO with a pending guard, so it never exceeds n entries —
 * the exact traversal (including the sorted merged neighbour re-enqueue
 * order) matches the reference loop.
 */
int repro_peel(
    int n, int num_colors, int max_stitch_degree,
    const int *conf_start, const int *conf_adj,
    const int *stitch_start, const int *stitch_adj,
    const int *friend_start, const int *friend_adj,
    signed char *alive, int *cdeg, int *sdeg, int *fdeg,
    int *stack)
{
    unsigned char *pending = calloc((size_t)n + 1, 1);
    int *queue = malloc(((size_t)n + 1) * sizeof(int));
    int *conflict_row = malloc(((size_t)n + 1) * sizeof(int));
    int *stitch_row = malloc(((size_t)n + 1) * sizeof(int));
    int *neighbours = malloc((2 * (size_t)n + 2) * sizeof(int));
    if (!pending || !queue || !conflict_row || !stitch_row || !neighbours) {
        free(pending);
        free(queue);
        free(conflict_row);
        free(stitch_row);
        free(neighbours);
        return -1;
    }
    for (int r = 0; r < n; r++) {
        alive[r] = 1;
        cdeg[r] = conf_start[r + 1] - conf_start[r];
        sdeg[r] = stitch_start[r + 1] - stitch_start[r];
        fdeg[r] = friend_start[r + 1] - friend_start[r];
    }
    int top = 0;
    for (int r = 0; r < n; r++) {
        if (cdeg[r] < num_colors && sdeg[r] < max_stitch_degree) {
            pending[r] = 1;
            queue[top++] = r;
        }
    }
    int stack_len = 0;
    while (top > 0) {
        int rank = queue[--top];
        pending[rank] = 0;
        if (!alive[rank])
            continue;
        if (cdeg[rank] >= num_colors || sdeg[rank] >= max_stitch_degree)
            continue;
        int crow_len = 0;
        for (int i = conf_start[rank]; i < conf_start[rank + 1]; i++) {
            int other = conf_adj[i];
            if (alive[other])
                conflict_row[crow_len++] = other;
        }
        int srow_len = 0;
        for (int i = stitch_start[rank]; i < stitch_start[rank + 1]; i++) {
            int other = stitch_adj[i];
            if (alive[other])
                stitch_row[srow_len++] = other;
        }
        /* merge two sorted duplicate-free rows, deduplicating */
        int ni = 0, ci = 0, si = 0;
        while (ci < crow_len && si < srow_len) {
            int a = conflict_row[ci], b = stitch_row[si];
            if (a < b) {
                neighbours[ni++] = a;
                ci++;
            } else if (b < a) {
                neighbours[ni++] = b;
                si++;
            } else {
                neighbours[ni++] = a;
                ci++;
                si++;
            }
        }
        while (ci < crow_len)
            neighbours[ni++] = conflict_row[ci++];
        while (si < srow_len)
            neighbours[ni++] = stitch_row[si++];
        alive[rank] = 0;
        stack[stack_len++] = rank;
        for (int i = 0; i < crow_len; i++)
            cdeg[conflict_row[i]] -= 1;
        for (int i = 0; i < srow_len; i++)
            sdeg[stitch_row[i]] -= 1;
        for (int i = friend_start[rank]; i < friend_start[rank + 1]; i++) {
            int other = friend_adj[i];
            if (alive[other])
                fdeg[other] -= 1;
        }
        for (int i = 0; i < ni; i++) {
            int other = neighbours[i];
            if (!pending[other] && alive[other] &&
                cdeg[other] < num_colors && sdeg[other] < max_stitch_degree) {
                pending[other] = 1;
                queue[top++] = other;
            }
        }
    }
    free(pending);
    free(queue);
    free(conflict_row);
    free(stitch_row);
    free(neighbours);
    return stack_len;
}

/* Branch-and-bound DFS (backtrack.search_merged_graph).
 *
 * Position-space packed earlier-edge CSR; best_cost_io carries the incumbent
 * cost in and the best cost out; best_pos carries the incumbent assignment
 * in and the best assignment out (both in position space).  Returns the
 * expansion count; *completed_out is the budget-contract flag.
 *
 * The DFS stack holds at most one pending sibling per depth plus one child,
 * so n + 2 entries always suffice.
 */
typedef struct {
    int depth;
    int color;
    double cost;
    int max_used;
} StackEntry;

long long repro_backtrack_search(
    int n, int num_colors, double alpha, long long expansion_limit,
    const int *edge_start, const int *edge_pos,
    const double *edge_cw, const double *edge_sw,
    double *best_cost_io, int *best_pos, int *completed_out)
{
    int *assignment = malloc((size_t)n * sizeof(int));
    StackEntry *stack = malloc((size_t)(n + 2) * sizeof(StackEntry));
    if (assignment == NULL || stack == NULL) {
        free(assignment);
        free(stack);
        *completed_out = -1; /* signals the caller to fall back */
        return -1;
    }
    for (int p = 0; p < n; p++)
        assignment[p] = -1;

    double best_cost = *best_cost_io;
    int dirty = 0;
    long long expansions = 0;
    int completed = 1;
    int max_fresh = num_colors - 1;
    int top = 0;
    stack[top].depth = 0;
    stack[top].color = 0;
    stack[top].cost = 0.0;
    stack[top].max_used = -1;
    top = 1;

    while (top > 0) {
        top -= 1;
        int depth = stack[top].depth;
        int color = stack[top].color;
        double cost_so_far = stack[top].cost;
        int max_used = stack[top].max_used;
        while (dirty > depth) {
            dirty -= 1;
            assignment[dirty] = -1;
        }
        int limit_color = max_used + 1;
        if (limit_color > max_fresh)
            limit_color = max_fresh;
        if (color > limit_color)
            continue;
        if (expansions >= expansion_limit) {
            completed = 0;
            break;
        }
        if (color + 1 <= limit_color) {
            stack[top].depth = depth;
            stack[top].color = color + 1;
            stack[top].cost = cost_so_far;
            stack[top].max_used = max_used;
            top += 1;
        }
        expansions += 1;
        double added = 0.0;
        for (int i = edge_start[depth]; i < edge_start[depth + 1]; i++) {
            int other_color = assignment[edge_pos[i]];
            if (other_color < 0)
                continue;
            if (other_color == color)
                added += edge_cw[i];
            else
                added += alpha * edge_sw[i];
        }
        double new_cost = cost_so_far + added;
        if (new_cost >= best_cost)
            continue;
        assignment[depth] = color;
        dirty = depth + 1;
        if (depth + 1 == n) {
            best_cost = new_cost;
            for (int p = 0; p < n; p++)
                best_pos[p] = assignment[p];
            continue;
        }
        stack[top].depth = depth + 1;
        stack[top].color = 0;
        stack[top].cost = new_cost;
        stack[top].max_used = max_used >= color ? max_used : color;
        top += 1;
    }

    free(assignment);
    free(stack);
    *best_cost_io = best_cost;
    *completed_out = completed;
    return expansions;
}

/* Dot product summed left to right from +0.0 (sdp._row_dots). */
static double dot(const double *a, const double *b, int dim)
{
    double s = 0.0;
    for (int k = 0; k < dim; k++)
        s += a[k] * b[k];
    return s;
}

/* g_i += w * v_j, then g_j += w * v_i. */
static void scatter_edge(
    double *grad, const double *vectors, int i, int j, double w, int dim)
{
    double *gi = grad + (size_t)i * dim;
    const double *vj = vectors + (size_t)j * dim;
    for (int k = 0; k < dim; k++)
        gi[k] += w * vj[k];
    double *gj = grad + (size_t)j * dim;
    const double *vi = vectors + (size_t)i * dim;
    for (int k = 0; k < dim; k++)
        gj[k] += w * vi[k];
}

/* Largest lower_bound - v_i . v_j over the conflict edges, at least 0
 * (sdp._max_violation). */
static double max_violation(
    const double *vectors, int dim, const int *conflict, int num_conflicts,
    double lower_bound)
{
    double worst = 0.0;
    for (int e = 0; e < num_conflicts; e++) {
        double v = lower_bound - dot(vectors + (size_t)conflict[2 * e] * dim,
                                     vectors + (size_t)conflict[2 * e + 1] * dim,
                                     dim);
        if (v > worst)
            worst = v;
    }
    return worst;
}

/* Vector-program relaxation (opt/sdp.py VectorProgramSolver._relax).
 *
 * vectors[n * dim] carries the normalised start point in and the final
 * factor out; gram[n * n] receives the clipped inner products.  Edge
 * arrays are (i, j) pairs.  Returns the total inner iterations, or -1 on
 * allocation failure before anything was written (the caller runs the
 * reference).  The arithmetic contract lives in the opt/sdp.py docstring:
 * sums run left to right from +0.0, the gradient is scattered per edge in
 * edge order (conflicts, then stitches), norms are sqrt of such a sum.
 */
long long repro_sdp_solve(
    int n, int dim,
    const int *conflict, int num_conflicts,
    const int *stitch, int num_stitches,
    double alpha, double lower_bound, double learning_rate,
    double penalty_initial, double penalty_growth, double gradient_tolerance,
    long long max_outer, long long max_inner,
    double *vectors, double *gram,
    double *objective_out, double *violation_out)
{
    size_t size = (size_t)n * dim;
    double *grad = malloc(size * sizeof(double));
    if (grad == NULL)
        return -1;
    double neg_alpha = -alpha;
    double penalty = penalty_initial;
    long long total = 0;
    for (long long outer = 0; outer < max_outer; outer++) {
        double twice_penalty = 2.0 * penalty;
        double previous = HUGE_VAL;
        long long iterations = 0;
        for (long long iteration = 0; iteration < max_inner; iteration++) {
            iterations = iteration + 1;
            for (size_t x = 0; x < size; x++)
                grad[x] = 0.0;
            double value = 0.0;
            for (int e = 0; e < num_conflicts; e++) {
                int i = conflict[2 * e], j = conflict[2 * e + 1];
                double d = dot(vectors + (size_t)i * dim,
                               vectors + (size_t)j * dim, dim);
                double s = lower_bound - d;
                if (!(s > 0.0))
                    s = 0.0;
                value += d + penalty * (s * s);
                scatter_edge(grad, vectors, i, j, 1.0 - twice_penalty * s, dim);
            }
            for (int e = 0; e < num_stitches; e++) {
                int i = stitch[2 * e], j = stitch[2 * e + 1];
                double d = dot(vectors + (size_t)i * dim,
                               vectors + (size_t)j * dim, dim);
                value += neg_alpha * d;
                scatter_edge(grad, vectors, i, j, neg_alpha, dim);
            }
            /* Tangent projection in place; its squared norm in row-major order. */
            double norm_sq = 0.0;
            for (int r = 0; r < n; r++) {
                double *g = grad + (size_t)r * dim;
                const double *v = vectors + (size_t)r * dim;
                double radial = dot(g, v, dim);
                for (int k = 0; k < dim; k++) {
                    g[k] = g[k] - radial * v[k];
                    norm_sq += g[k] * g[k];
                }
            }
            if (sqrt(norm_sq) / (double)n < gradient_tolerance)
                break;
            for (int r = 0; r < n; r++) {
                double *v = vectors + (size_t)r * dim;
                const double *g = grad + (size_t)r * dim;
                for (int k = 0; k < dim; k++)
                    v[k] = v[k] - learning_rate * g[k];
                double norm = sqrt(dot(v, v, dim));
                if (norm == 0.0)
                    norm = 1.0;
                for (int k = 0; k < dim; k++)
                    v[k] = v[k] / norm;
            }
            if (fabs(previous - value) < 1e-9 * (1.0 + fabs(value)))
                break;
            previous = value;
        }
        total += iterations;
        if (max_violation(vectors, dim, conflict, num_conflicts, lower_bound) < 1e-3)
            break;
        penalty *= penalty_growth;
    }
    free(grad);

    for (int a = 0; a < n; a++) {
        for (int b = 0; b < n; b++) {
            double x = dot(vectors + (size_t)a * dim, vectors + (size_t)b * dim, dim);
            gram[(size_t)a * n + b] = x < -1.0 ? -1.0 : (x > 1.0 ? 1.0 : x);
        }
    }
    double objective = 0.0;
    for (int e = 0; e < num_conflicts; e++)
        objective += dot(vectors + (size_t)conflict[2 * e] * dim,
                         vectors + (size_t)conflict[2 * e + 1] * dim, dim);
    for (int e = 0; e < num_stitches; e++)
        objective += neg_alpha * dot(vectors + (size_t)stitch[2 * e] * dim,
                                     vectors + (size_t)stitch[2 * e + 1] * dim,
                                     dim);
    *objective_out = objective;
    *violation_out = max_violation(vectors, dim, conflict, num_conflicts, lower_bound);
    return total;
}
