(** Synthetic interference graphs at scales no real routine reaches.

    The real suite tops out near 2k webs — far too small to exercise
    {!Par_color} — so the benches generate graphs directly: power-law
    graphs (preferential attachment — a few hub webs interfering with
    everything, the shape long-lived values produce) and geometric
    random graphs (uniform points joined within a radius — the locally
    dense, globally sparse shape of straight-line code). Storage is a
    compact CSR adjacency (two int arrays), so a million-web graph
    costs megabytes where {!Igraph}'s triangular bit matrix would cost
    gigabytes.

    Everything is deterministic from [seed] via {!Ra_support.Lcg}; the
    byte-stability tests pin {!digest} across runs and pool widths. *)

type t

val n_nodes : t -> int
val n_precolored : t -> int
val n_edges : t -> int
val iter_neighbors : t -> int -> f:(int -> unit) -> unit

(** The engine's read-only adjacency interface over this graph. *)
val view : t -> Par_color.view

(** [power_law ~seed ~n_nodes ~n_precolored ~avg_degree] grows a
    Barabási–Albert-style graph: each new node attaches
    [avg_degree / 2] edges to endpoints sampled proportionally to
    current degree, seeded from a uniform pool that includes the
    machine registers (so precolored interference exists, as in real
    graphs). *)
val power_law :
  seed:int -> n_nodes:int -> n_precolored:int -> avg_degree:int -> t

(** [geometric ~seed ~n_nodes ~n_precolored ~avg_degree] scatters nodes
    uniformly in the unit square and joins pairs within the radius that
    yields the requested expected degree; machine registers are
    scattered like any other node. *)
val geometric :
  seed:int -> n_nodes:int -> n_precolored:int -> avg_degree:int -> t

(** A natural coloring order: every non-precolored node, ascending id —
    what Select sees after a degree-agnostic simplify. *)
val natural_order : t -> int array

(** A 64-bit FNV-1a digest of the full structure (sizes, row offsets,
    adjacency), as fixed-width hex — the determinism tests' fingerprint. *)
val digest : t -> string

(** Materialize as an {!Igraph} (small graphs only: the bit matrix is
    quadratic). Edges are inserted in CSR row order, ascending rows. *)
val to_igraph : t -> Igraph.t
