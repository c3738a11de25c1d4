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

/* Greedy coloring walk (greedy_coloring.greedy_walk).
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

/* Kernel coloring walk (linear_coloring.linear_walk).
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

/* Kernel-subgraph score (evaluation.count_rank_pairs): conflict/stitch counts
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

/* Local recolor cost (the cost inside refinement.refine_pass). */
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

/* One greedy improvement pass (refinement.refine_pass),
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
        /* A queued rank is alive and removable: it was queued so, and
         * its degrees only fall while it waits. */
        int rank = queue[--top];
        pending[rank] = 0;
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

/* Connected components over conflict and stitch edges
 * (division.rank_components): of a whole component graph, or of the
 * kernel its peel leaves.  alive[] marks the ranks searched (NULL: all);
 * it is read, never written.  A breadth-first search starts from every
 * unlabelled alive rank in rank order, so components are numbered by
 * their smallest rank.  label[r] is r's component, -1 for a rank not
 * alive; members[] lists the alive ranks component by component,
 * ascending within one, and component c is members[start[c] ..
 * start[c + 1]).  members[] and start[] need n and n + 1 entries.  The
 * search allocates nothing; returns the component count. */
int repro_components(
    int n, const signed char *alive,
    const int *conf_start, const int *conf_adj,
    const int *stitch_start, const int *stitch_adj,
    int *label, int *members, int *start)
{
    for (int r = 0; r < n; r++)
        label[r] = -1;
    /* members[] is the search queue first: each component lands in one
     * run, in label order, so the runs' bounds are the final ones. */
    int count = 0, tail = 0;
    for (int root = 0; root < n; root++) {
        if (label[root] >= 0 || (alive && !alive[root]))
            continue;
        start[count] = tail;
        label[root] = count;
        members[tail++] = root;
        for (int head = start[count]; head < tail; head++) {
            int rank = members[head];
            for (int i = conf_start[rank]; i < conf_start[rank + 1]; i++) {
                int other = conf_adj[i];
                if (label[other] < 0 && (!alive || alive[other])) {
                    label[other] = count;
                    members[tail++] = other;
                }
            }
            for (int i = stitch_start[rank]; i < stitch_start[rank + 1]; i++) {
                int other = stitch_adj[i];
                if (label[other] < 0 && (!alive || alive[other])) {
                    label[other] = count;
                    members[tail++] = other;
                }
            }
        }
        count++;
    }
    start[count] = tail;
    /* Refill each run in rank order, advancing start[c] through run c;
     * it ends at the next run's start, so shifting restores the bounds. */
    for (int r = 0; r < n; r++)
        if (label[r] >= 0)
            members[start[label[r]]++] = r;
    for (int c = count; c > 0; c--)
        start[c] = start[c - 1];
    start[0] = 0;
    return count;
}

/* The two division stages below work on one piece of a component: ranks[]
 * holds its n ranks, strictly increasing, and a piece vertex is its
 * position in ranks[].  position[] has one entry per component rank; it
 * must arrive all -1, maps the piece's ranks to positions while the stage
 * runs, and is all -1 again on return.  Positions increase with rank, so a
 * CSR row read through position[] stays sorted. */
static void place_piece(int n, const int *ranks, int *position, int placed)
{
    for (int p = 0; p < n; p++)
        position[ranks[p]] = placed ? p : -1;
}

/* The piece's conflict plus stitch row lengths: a bound on its inside
 * adjacency entries, where each inside edge counts at both ends. */
static size_t row_entries(
    int n, const int *ranks, const int *conf_start, const int *stitch_start)
{
    size_t entries = 0;
    for (int p = 0; p < n; p++) {
        int rank = ranks[p];
        entries += (size_t)(conf_start[rank + 1] - conf_start[rank]);
        entries += (size_t)(stitch_start[rank + 1] - stitch_start[rank]);
    }
    return entries;
}

static int compare_ints(const void *a, const void *b)
{
    int x = *(const int *)a, y = *(const int *)b;
    return (x > y) - (x < y);
}

/* Biconnected blocks of the piece (biconnected._biconnected_dfs).
 *
 * A vertex's neighbours are its conflict and stitch neighbours inside the
 * piece, merged ascending with a shared one once: the reference's sorted
 * adjacency.  The DFS takes roots in vertex order and neighbours in list
 * order.  Writes the blocks in discovery order, each sorted, as ranks:
 * block b is members[block_start[b] .. block_start[b + 1]).  A vertex in
 * no block (an isolated one) follows as a singleton, in vertex order.
 * members[] needs 2n entries and block_start[] n + 1: a graph on n
 * vertices has at most n blocks, holding at most 2n vertices together.
 * Returns the block count, or -1 on allocation failure.
 */
int repro_blocks(
    int n, const int *ranks,
    const int *conf_start, const int *conf_adj,
    const int *stitch_start, const int *stitch_adj,
    int *position, int *members, int *block_start)
{
    size_t bound = row_entries(n, ranks, conf_start, stitch_start);
    int *adj_start = malloc(((size_t)n + 1) * sizeof(int));
    int *adj = malloc((bound + 1) * sizeof(int));
    int *index = malloc(((size_t)n + 1) * sizeof(int));
    int *low = malloc(((size_t)n + 1) * sizeof(int));
    int *parent = malloc(((size_t)n + 1) * sizeof(int));
    int *resume = malloc(((size_t)n + 1) * sizeof(int));
    int *path = malloc(((size_t)n + 1) * sizeof(int));
    int *mark = calloc((size_t)n + 1, sizeof(int));
    /* Every edge is pushed once, from its later-visited end. */
    int *edge_tail = malloc((bound / 2 + 1) * sizeof(int));
    int *edge_head = malloc((bound / 2 + 1) * sizeof(int));
    int result = -1;
    if (!adj_start || !adj || !index || !low || !parent || !resume || !path ||
        !mark || !edge_tail || !edge_head)
        goto done;

    place_piece(n, ranks, position, 1);
    int entries = 0;
    for (int p = 0; p < n; p++) {
        int rank = ranks[p];
        int ci = conf_start[rank], ce = conf_start[rank + 1];
        int si = stitch_start[rank], se = stitch_start[rank + 1];
        adj_start[p] = entries;
        for (;;) {
            while (ci < ce && position[conf_adj[ci]] < 0)
                ci++;
            while (si < se && position[stitch_adj[si]] < 0)
                si++;
            if (ci == ce && si == se)
                break;
            int a = ci < ce ? position[conf_adj[ci]] : n;
            int b = si < se ? position[stitch_adj[si]] : n;
            if (a <= b)
                ci++;
            if (b <= a)
                si++;
            adj[entries++] = a < b ? a : b;
        }
        index[p] = -1;
        parent[p] = -1;
    }
    adj_start[n] = entries;
    for (int p = 0; p < n; p++)
        resume[p] = adj_start[p];

    int counter = 0, blocks = 0, total = 0, top = 0;
    for (int root = 0; root < n; root++) {
        if (index[root] >= 0)
            continue;
        index[root] = low[root] = counter++;
        int depth = 0;
        path[depth++] = root;
        while (depth > 0) {
            int vertex = path[depth - 1];
            int up = parent[vertex];
            int pointer = resume[vertex];
            int descended = 0;
            while (pointer < adj_start[vertex + 1]) {
                int child = adj[pointer++];
                if (child == up)
                    continue;
                int seen = index[child];
                if (seen >= 0) {
                    if (seen < index[vertex]) {
                        edge_tail[top] = vertex;
                        edge_head[top++] = child;
                        if (seen < low[vertex])
                            low[vertex] = seen;
                    }
                    continue;
                }
                /* Tree edge: descend. */
                edge_tail[top] = vertex;
                edge_head[top++] = child;
                index[child] = low[child] = counter++;
                resume[vertex] = pointer;
                parent[child] = vertex;
                path[depth++] = child;
                descended = 1;
                break;
            }
            if (descended)
                continue;
            depth--;
            if (up == -1)
                continue;
            if (low[vertex] < low[up])
                low[up] = low[vertex];
            if (low[vertex] < index[up])
                continue;
            /* Pop the block of edges above (up, vertex). */
            int first = total;
            while (top > 0) {
                top--;
                int a = edge_tail[top], b = edge_head[top];
                if (mark[a] != blocks + 1) {
                    mark[a] = blocks + 1;
                    members[total++] = a;
                }
                if (mark[b] != blocks + 1) {
                    mark[b] = blocks + 1;
                    members[total++] = b;
                }
                if (a == up && b == vertex)
                    break;
            }
            qsort(members + first, (size_t)(total - first), sizeof(int), compare_ints);
            block_start[blocks++] = first;
        }
        /* Every edge under a root lies above one of the root's tree edges,
         * whose pop ends at it, so the reference's final leftover block is
         * always empty and has no counterpart here. */
    }
    for (int p = 0; p < n; p++) {
        if (!mark[p]) {
            block_start[blocks++] = total;
            members[total++] = p;
        }
    }
    block_start[blocks] = total;
    for (int i = 0; i < total; i++)
        members[i] = ranks[members[i]];
    result = blocks;

done:
    place_piece(n, ranks, position, 0);
    free(adj_start);
    free(adj);
    free(index);
    free(low);
    free(parent);
    free(resume);
    free(path);
    free(mark);
    free(edge_tail);
    free(edge_head);
    return result;
}

/* The flow network and class bookkeeping of repro_kclasses. */
typedef struct {
    const int *arc_start; /* vertex -> its arcs in arc_list, in edge order */
    const int *arc_list;
    const int *head;      /* arc -> head vertex; arc ^ 1 is its residual */
    int arcs;
    int *residual;
    int *via;             /* vertex -> arc that reached it, -2 source, -1 none */
    int *queue;           /* the BFS order; the source side after a cut */
    int *label;           /* vertex -> its class (a member vertex) */
    int *next_member;     /* class member lists, -1 terminated */
    int *class_head;
    int *class_size;
    int *group;
    int groups;
} ClassNetwork;

/* BFS from every member of class s over arcs with residual capacity,
 * stopping at the first vertex of class t.  Returns that vertex, or -1;
 * *reached is the number of vertices queued (all of the source side when
 * t is unreachable).  via[] is set for those and the returned vertex. */
static int class_search(ClassNetwork *net, int s, int t, int *reached)
{
    int len = 0;
    for (int m = net->class_head[s]; m >= 0; m = net->next_member[m]) {
        net->via[m] = -2;
        net->queue[len++] = m;
    }
    int end = -1;
    for (int i = 0; i < len && end < 0; i++) {
        int vertex = net->queue[i];
        for (int j = net->arc_start[vertex]; j < net->arc_start[vertex + 1]; j++) {
            int arc = net->arc_list[j];
            if (!net->residual[arc])
                continue;
            int h = net->head[arc];
            if (net->via[h] != -1)
                continue;
            net->via[h] = arc;
            if (net->label[h] == t) {
                end = h;
                break;
            }
            net->queue[len++] = h;
        }
    }
    *reached = len;
    return end;
}

/* Flow from class s to class t, stopping after limit augmenting paths;
 * returns min(value, limit).  Below the limit, queue[0 .. *reached) is the
 * source side of the minimal minimum cut. */
static int class_flow(ClassNetwork *net, int s, int t, int limit, int *reached)
{
    for (int a = 0; a < net->arcs; a++)
        net->residual[a] = 1;
    int total = 0;
    while (total < limit) {
        int end = class_search(net, s, t, reached);
        if (end >= 0) {
            int arc = net->via[end];
            while (arc >= 0) {
                net->residual[arc] -= 1;
                net->residual[arc ^ 1] += 1;
                arc = net->via[net->head[arc ^ 1]];
            }
            net->via[end] = -1;
        }
        for (int i = 0; i < *reached; i++)
            net->via[net->queue[i]] = -1;
        if (end < 0)
            return total;
        total += 1;
    }
    return total;
}

/* One capped flow between the classes of u and v, from the smaller class
 * to the larger: merge them at the cap, else split u's group along the
 * cut (separate() inside components_below). */
static void separate(ClassNetwork *net, int u, int v, int threshold)
{
    int source = u, sink = v;
    if (net->class_size[net->label[v]] < net->class_size[net->label[u]]) {
        source = v;
        sink = u;
    }
    int s = net->label[source], t = net->label[sink];
    int reached = 0;
    if (class_flow(net, s, t, threshold, &reached) >= threshold) {
        /* Merge the smaller class into the larger one. */
        int keep = t, drop = s;
        if (net->class_size[keep] < net->class_size[drop]) {
            keep = s;
            drop = t;
        }
        int last = drop;
        for (int m = net->class_head[drop]; m >= 0; m = net->next_member[m]) {
            net->label[m] = keep;
            last = m;
        }
        net->next_member[last] = net->class_head[keep];
        net->class_head[keep] = net->class_head[drop];
        net->class_head[drop] = -1;
        net->class_size[keep] += net->class_size[drop];
        net->class_size[drop] = 0;
        return;
    }
    int old = net->group[u], fresh = net->groups++;
    for (int i = 0; i < reached; i++) {
        int vertex = net->queue[i];
        if (net->group[vertex] == old)
            net->group[vertex] = fresh;
    }
}

/* K-classes of the piece (gomory_hu.GomoryHuTree.components_below).
 *
 * The flow network holds the piece's conflict edges, then its stitch
 * edges, each as arcs 2k (u -> v) and 2k + 1 (v -> u) of capacity 1, so a
 * pair in both relations has capacity 2.  Every vertex starts as its own
 * class, all in group 0.  A flow runs from one class of a group to
 * another, capped at the threshold: at the cap the two classes merge,
 * below it the group splits along the source side of the cut.  Pairs come
 * from the edges, then from each vertex against its group's leader, as in
 * the reference.  class_of[p] receives the class of position p, classes
 * numbered by their smallest vertex.  Returns the class count, or -1 on
 * allocation failure.
 */
int repro_kclasses(
    int n, int threshold, const int *ranks,
    const int *conf_start, const int *conf_adj,
    const int *stitch_start, const int *stitch_adj,
    int *position, int *class_of)
{
    size_t bound = row_entries(n, ranks, conf_start, stitch_start);
    int *arc_start = calloc((size_t)n + 2, sizeof(int));
    int *arc_list = malloc((bound + 1) * sizeof(int));
    int *head = malloc((bound + 1) * sizeof(int));
    int *residual = malloc((bound + 1) * sizeof(int));
    int *via = malloc(((size_t)n + 1) * sizeof(int));
    int *queue = malloc(((size_t)n + 1) * sizeof(int));
    int *label = malloc(((size_t)n + 1) * sizeof(int));
    int *next_member = malloc(((size_t)n + 1) * sizeof(int));
    int *class_head = malloc(((size_t)n + 1) * sizeof(int));
    int *class_size = malloc(((size_t)n + 1) * sizeof(int));
    int *group = malloc(((size_t)n + 1) * sizeof(int));
    int *leader = malloc(((size_t)n + 1) * sizeof(int));
    int result = -1;
    if (!arc_start || !arc_list || !head || !residual || !via || !queue ||
        !label || !next_member || !class_head || !class_size || !group || !leader)
        goto done;

    place_piece(n, ranks, position, 1);
    /* Edge k is arcs 2k and 2k + 1: the conflict pairs (u < v) in order,
     * then the stitch pairs; head[] first, degrees into arc_start[]. */
    int arcs = 0;
    for (int relation = 0; relation < 2; relation++) {
        const int *start = relation ? stitch_start : conf_start;
        const int *adj = relation ? stitch_adj : conf_adj;
        for (int p = 0; p < n; p++) {
            int rank = ranks[p];
            for (int i = start[rank]; i < start[rank + 1]; i++) {
                int q = position[adj[i]];
                if (q <= p)
                    continue;
                head[arcs++] = q;
                head[arcs++] = p;
                arc_start[p + 2] += 1;
                arc_start[q + 2] += 1;
            }
        }
    }
    for (int p = 0; p < n; p++)
        arc_start[p + 2] += arc_start[p + 1];
    /* arc_start[p + 1] is now the first slot of vertex p; fill in arc order. */
    for (int arc = 0; arc < arcs; arc++) {
        int tail = head[arc ^ 1];
        arc_list[arc_start[tail + 1]++] = arc;
    }
    for (int p = 0; p < n; p++) {
        via[p] = -1;
        label[p] = p;
        next_member[p] = -1;
        class_head[p] = p;
        class_size[p] = 1;
        group[p] = 0;
        leader[p] = -1;
    }
    ClassNetwork net = {
        arc_start, arc_list, head, arcs, residual, via, queue,
        label, next_member, class_head, class_size, group, 1,
    };
    for (int arc = 0; arc < arcs; arc += 2) {
        int u = head[arc + 1], v = head[arc];
        if (group[u] == group[v] && label[u] != label[v])
            separate(&net, u, v, threshold);
    }
    /* A K-class need not contain an edge (two hubs joined only through K or
     * more degree-2 vertices), so every vertex also meets its group's
     * leader, whose class holds every vertex of the group visited so far. */
    for (int v = 0; v < n; v++) {
        if (leader[group[v]] < 0)
            leader[group[v]] = v;
        int u = leader[group[v]];
        if (label[u] != label[v]) {
            separate(&net, u, v, threshold);
            leader[group[u]] = u;
            leader[group[v]] = v;
        }
    }
    /* Number the classes by their smallest vertex (leader[] is reused). */
    int classes = 0;
    for (int p = 0; p < n; p++)
        leader[p] = -1;
    for (int p = 0; p < n; p++) {
        if (leader[label[p]] < 0)
            leader[label[p]] = classes++;
        class_of[p] = leader[label[p]];
    }
    result = classes;

done:
    place_piece(n, ranks, position, 0);
    free(arc_start);
    free(arc_list);
    free(head);
    free(residual);
    free(via);
    free(queue);
    free(label);
    free(next_member);
    free(class_head);
    free(class_size);
    free(group);
    free(leader);
    return result;
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
