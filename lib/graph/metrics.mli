(** Graph quality metrics of the paper's Figure 4.

    All metrics follow the paper's measurement conventions (§4.5):
    - the {e clustering coefficient} averages the local clustering
      coefficient of correct nodes in an undirected version of the graph
      where malicious nodes are assumed all connected to one another;
    - the {e mean path length} is measured in a graph where malicious
      nodes have no connections in either direction (they do not
      cooperate in forwarding);
    - the {e in-degree spread} is the difference between the last and
      first decile of correct nodes' in-degrees (counting edges from
      correct nodes only).

    Expensive metrics accept sampling knobs so that large snapshots
    remain affordable; with the default [Rng] sampling the estimators are
    unbiased.  A metric draws from [rng] only when the correct vertices
    outnumber its sample size, and then exactly one
    [Rng.sample_without_replacement] call over them in ascending order.

    The kernels work on flat arrays: each call reads [is_malicious] once
    per vertex into a mask; clustering builds the undirected closure once
    in compressed-row form and counts each sampled vertex's connected
    neighbor pairs as an exact integer; the path-length search reuses one
    array queue and one visit-stamp array across sources and sums
    distances as integers.  Results are bit-identical to the textbook per-vertex
    hash-table formulation, which [test/test_graph.ml] keeps as a
    differential oracle. *)

val clustering_coefficient :
  ?sample:int ->
  rng:Basalt_prng.Rng.t ->
  is_malicious:(int -> bool) ->
  Digraph.t ->
  float
(** [clustering_coefficient ~rng ~is_malicious g] averages the local
    clustering coefficient over (a sample of, default 400) correct
    vertices.  Nodes of undirected degree [< 2] contribute 0. *)

val mean_path_length :
  ?sources:int ->
  rng:Basalt_prng.Rng.t ->
  is_malicious:(int -> bool) ->
  Digraph.t ->
  float
(** [mean_path_length ~rng ~is_malicious g] runs BFS from (a sample of,
    default 64) correct sources over the correct-only directed subgraph
    and averages the distance to every reached correct vertex.  Returns
    [nan] when nothing is reachable. *)

val indegree_decile_spread : is_malicious:(int -> bool) -> Digraph.t -> float
(** [indegree_decile_spread ~is_malicious g] is the 90th minus the 10th
    percentile of correct vertices' in-degrees, counting only edges
    originating at correct vertices. *)

val indegrees_correct : is_malicious:(int -> bool) -> Digraph.t -> int array
(** [indegrees_correct ~is_malicious g] is the in-degree of each correct
    vertex, counting only edges from correct vertices (the raw data behind
    {!indegree_decile_spread}). *)
