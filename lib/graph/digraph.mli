(** Directed graph snapshots of the overlay.

    A snapshot freezes, at measurement time, the directed graph whose
    vertices are all [n] nodes and whose edges go from each node to the
    members of its current view.  Self-loops and duplicate view entries
    are removed.  Rows are plain [int array]s, deduplicated through one
    stamp array per snapshot; the metric kernels of {!Metrics} walk them
    directly. *)

type t
(** An immutable directed graph over vertices [0 .. n-1]. *)

val of_views : n:int -> (int -> Basalt_proto.Node_id.t array) -> t
(** [of_views ~n view] builds the snapshot; [view i] is node [i]'s current
    view (called once per node).  Nodes may return [[||]] (e.g. malicious
    nodes whose internal state is not modelled).
    @raise Invalid_argument on out-of-range targets. *)

val of_adjacency : int array array -> t
(** [of_adjacency adj] wraps an explicit adjacency (for tests); self-loops
    and duplicates are removed.
    @raise Invalid_argument on out-of-range targets. *)

val n : t -> int
(** Number of vertices. *)

val out_neighbors : t -> int -> int array
(** [out_neighbors g u] is the (deduplicated) out-adjacency of [u], in
    first-occurrence order of the source row.  The array is shared with
    the snapshot: do not mutate it. *)

val out_degree : t -> int -> int
(** [out_degree g u] is the number of distinct out-neighbors of [u]. *)

val in_degrees : t -> int array
(** [in_degrees g] is the in-degree of every vertex. *)

val edge_count : t -> int
(** Total number of directed edges. *)
