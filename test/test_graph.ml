(* Tests for basalt.graph: snapshots, metrics, isolation, generators. *)

open Basalt_graph
module Node_id = Basalt_proto.Node_id
module Check = Basalt_check.Check

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let id = Node_id.of_int
let rng () = Basalt_prng.Rng.create ~seed:21
let no_malicious _ = false

(* --- Digraph --- *)

let digraph_dedup_selfloop () =
  let g = Digraph.of_adjacency [| [| 1; 1; 0; 2 |]; [| 0 |]; [||] |] in
  Alcotest.(check (list int))
    "self-loop and dup removed" [ 1; 2 ]
    (Array.to_list (Digraph.out_neighbors g 0));
  check_int "n" 3 (Digraph.n g);
  check_int "edges" 3 (Digraph.edge_count g)

let digraph_out_of_range () =
  Alcotest.check_raises "bad target"
    (Invalid_argument "Digraph: vertex out of range") (fun () ->
      ignore (Digraph.of_adjacency [| [| 5 |] |]))

let digraph_in_degrees () =
  let g = Digraph.of_adjacency [| [| 1; 2 |]; [| 2 |]; [||] |] in
  Alcotest.(check (array int)) "in-degrees" [| 0; 1; 2 |] (Digraph.in_degrees g)

let digraph_of_views () =
  let views = [| [| id 1; id 1 |]; [| id 0 |]; [||] |] in
  let g = Digraph.of_views ~n:3 (fun u -> views.(u)) in
  check_int "edges deduped" 2 (Digraph.edge_count g)

(* --- Metrics --- *)

let complete_graph n =
  Digraph.of_adjacency
    (Array.init n (fun u -> Array.init n (fun v -> v) |> Array.to_list
                            |> List.filter (fun v -> v <> u) |> Array.of_list))

let clustering_complete () =
  let g = complete_graph 5 in
  check_float "complete graph = 1" 1.0
    (Metrics.clustering_coefficient ~rng:(rng ()) ~is_malicious:no_malicious g)

let clustering_star () =
  (* Star: center 0 connected to 1..4, no edges among leaves. *)
  let g = Digraph.of_adjacency [| [| 1; 2; 3; 4 |]; [||]; [||]; [||]; [||] |] in
  check_float "star = 0" 0.0
    (Metrics.clustering_coefficient ~rng:(rng ()) ~is_malicious:no_malicious g)

let clustering_malicious_convention () =
  (* Star whose leaves are all malicious: the paper's convention assumes
     malicious nodes form a clique, so the correct center sees a fully
     connected neighborhood. *)
  let g = Digraph.of_adjacency [| [| 1; 2; 3; 4 |]; [||]; [||]; [||]; [||] |] in
  check_float "malicious clique assumed" 1.0
    (Metrics.clustering_coefficient ~rng:(rng ())
       ~is_malicious:(fun u -> u > 0)
       g)

let path_length_chain () =
  (* 0 -> 1 -> 2 -> 3: from each source distances to all reachable.
     Sum of distances: from 0: 1+2+3; from 1: 1+2; from 2: 1; total 10 over
     6 pairs. *)
  let g = Digraph.of_adjacency [| [| 1 |]; [| 2 |]; [| 3 |]; [||] |] in
  let mpl =
    Metrics.mean_path_length ~rng:(rng ()) ~is_malicious:no_malicious g
  in
  check_float "chain mpl" (10.0 /. 6.0) mpl

let path_length_skips_malicious () =
  (* 0 -> 1 -> 2 where 1 is malicious: 2 unreachable through correct
     nodes, so only no finite correct-to-correct paths exist -> nan. *)
  let g = Digraph.of_adjacency [| [| 1 |]; [| 2 |]; [||] |] in
  let mpl =
    Metrics.mean_path_length ~rng:(rng ()) ~is_malicious:(fun u -> u = 1) g
  in
  check_bool "no correct path" true (Float.is_nan mpl)

let indegree_metrics () =
  (* Ring: every in-degree is 1 -> spread 0. *)
  let ring = Digraph.of_adjacency [| [| 1 |]; [| 2 |]; [| 3 |]; [| 0 |] |] in
  check_float "regular ring spread" 0.0
    (Metrics.indegree_decile_spread ~is_malicious:no_malicious ring);
  let deg = Metrics.indegrees_correct ~is_malicious:no_malicious ring in
  Alcotest.(check (array int)) "all ones" [| 1; 1; 1; 1 |] deg

let indegree_ignores_malicious_edges () =
  (* Edges from malicious node 0 must not count. *)
  let g = Digraph.of_adjacency [| [| 1; 2 |]; [| 2 |]; [||] |] in
  let deg = Metrics.indegrees_correct ~is_malicious:(fun u -> u = 0) g in
  Alcotest.(check (array int)) "only correct-to-correct" [| 0; 1 |] deg

(* --- Differential oracle --- *)

(* The textbook per-vertex hash-table formulation of the same snapshot
   and metrics, the reference the flat-array kernels must match bit for
   bit: row dedup through a [Hashtbl] per row, undirected adjacency as
   one [Hashtbl] per vertex with O(d^2) pair lookups, and a [Queue] BFS
   with a fresh distance array per source and float accumulation. *)
module Naive = struct
  module Rng = Basalt_prng.Rng

  let dedup_row n u row =
    let seen = Hashtbl.create (Array.length row) in
    let out = ref [] in
    Array.iter
      (fun v ->
        if v < 0 || v >= n then invalid_arg "Digraph: vertex out of range";
        if v <> u && not (Hashtbl.mem seen v) then begin
          Hashtbl.add seen v ();
          out := v :: !out
        end)
      row;
    Array.of_list (List.rev !out)

  let correct_vertices ~is_malicious g =
    let out = ref [] in
    for u = Digraph.n g - 1 downto 0 do
      if not (is_malicious u) then out := u :: !out
    done;
    Array.of_list !out

  let sample_vertices rng vertices k =
    if Array.length vertices <= k then vertices
    else Rng.sample_without_replacement rng ~k vertices

  let undirected_sets g =
    let n = Digraph.n g in
    let sets = Array.init n (fun _ -> Hashtbl.create 8) in
    for u = 0 to n - 1 do
      Array.iter
        (fun v ->
          Hashtbl.replace sets.(u) v ();
          Hashtbl.replace sets.(v) u ())
        (Digraph.out_neighbors g u)
    done;
    sets

  let clustering_coefficient ?(sample = 400) ~rng ~is_malicious g =
    let sets = undirected_sets g in
    let correct = correct_vertices ~is_malicious g in
    let picked = sample_vertices rng correct sample in
    if Array.length picked = 0 then 0.0
    else begin
      let total = ref 0.0 in
      Array.iter
        (fun u ->
          let neighbors = Hashtbl.fold (fun v () acc -> v :: acc) sets.(u) [] in
          let neighbors = Array.of_list neighbors in
          let d = Array.length neighbors in
          if d >= 2 then begin
            let connected = ref 0 in
            for i = 0 to d - 1 do
              for j = i + 1 to d - 1 do
                let a = neighbors.(i) and b = neighbors.(j) in
                if (is_malicious a && is_malicious b) || Hashtbl.mem sets.(a) b
                then incr connected
              done
            done;
            let pairs = d * (d - 1) / 2 in
            total := !total +. (float_of_int !connected /. float_of_int pairs)
          end)
        picked;
      !total /. float_of_int (Array.length picked)
    end

  let bfs_correct ~is_malicious g source =
    let dist = Array.make (Digraph.n g) (-1) in
    let queue = Queue.create () in
    dist.(source) <- 0;
    Queue.add source queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      Array.iter
        (fun v ->
          if dist.(v) < 0 && not (is_malicious v) then begin
            dist.(v) <- dist.(u) + 1;
            Queue.add v queue
          end)
        (Digraph.out_neighbors g u)
    done;
    dist

  let mean_path_length ?(sources = 64) ~rng ~is_malicious g =
    let correct = correct_vertices ~is_malicious g in
    let picked =
      sample_vertices rng
        (Array.of_list
           (List.filter (fun u -> not (is_malicious u)) (Array.to_list correct)))
        sources
    in
    let total = ref 0.0 and count = ref 0 in
    Array.iter
      (fun source ->
        Array.iteri
          (fun v d ->
            if d > 0 && v <> source then begin
              total := !total +. float_of_int d;
              incr count
            end)
          (bfs_correct ~is_malicious g source))
      picked;
    if !count = 0 then Float.nan else !total /. float_of_int !count
end

type kernel_case = {
  rows : int array array;
  malicious : bool array;
  sample : int;
  sources : int;
  seed : int;
}

(* Random digraphs on at most 40 vertices whose rows repeat targets and
   include self-loops, a random malicious set, and sample sizes on both
   sides of the correct-vertex count (so some cases draw and some do
   not). *)
let gen_kernel_case =
  let open Check.Gen in
  bind (int_range 0 40) (fun n ->
      let row =
        if n = 0 then return [||] else array ~max_len:(2 * n) (nat ~max:(n - 1))
      in
      map2
        (fun (rows, malicious) (sample, sources, seed) ->
          { rows; malicious; sample; sources; seed })
        (pair (array ~min_len:n ~max_len:n row)
           (array ~min_len:n ~max_len:n (frequency [ (3, return false); (1, bool) ])))
        (triple (int_range 0 (n + 2)) (int_range 0 (n + 2)) (nat ~max:1_000_000)))

let print_kernel_case c =
  Printf.sprintf "{rows=%s; malicious=%s; sample=%d; sources=%d; seed=%d}"
    (Check.Print.array (Check.Print.array Check.Print.int) c.rows)
    (Check.Print.array Check.Print.bool c.malicious)
    c.sample c.sources c.seed

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The flat-array kernels against [Naive], in the order the runner calls
   them on one shared stream: identical rows, identical float bits for
   both metrics (NaN included) and the same next draw afterwards, so the
   kernels consume exactly the oracle's draws. *)
let prop_kernels_match_naive =
  Check.prop ~name:"kernels match hash-table oracle" ~count:300
    ~print:print_kernel_case gen_kernel_case (fun c ->
      let n = Array.length c.rows in
      let g = Digraph.of_adjacency c.rows in
      let is_malicious u = c.malicious.(u) in
      let rows_ok =
        List.for_all
          (fun u -> Digraph.out_neighbors g u = Naive.dedup_row n u c.rows.(u))
          (List.init n Fun.id)
      in
      let fast = Basalt_prng.Rng.create ~seed:c.seed in
      let slow = Basalt_prng.Rng.create ~seed:c.seed in
      let cc =
        Metrics.clustering_coefficient ~sample:c.sample ~rng:fast ~is_malicious g
      in
      let cc' =
        Naive.clustering_coefficient ~sample:c.sample ~rng:slow ~is_malicious g
      in
      let mpl =
        Metrics.mean_path_length ~sources:c.sources ~rng:fast ~is_malicious g
      in
      let mpl' =
        Naive.mean_path_length ~sources:c.sources ~rng:slow ~is_malicious g
      in
      rows_ok && same_bits cc cc' && same_bits mpl mpl'
      && Basalt_prng.Rng.bits fast = Basalt_prng.Rng.bits slow)

(* Words allocated by [f ()], minor and major heap alike (the undirected
   closure's arrays are too large for the minor heap), less the probe's
   own boxed floats. *)
let words_of f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let a = words () in
  let b = words () in
  let own = b -. a in
  let before = words () in
  f ();
  let after = words () in
  after -. before -. own

(* On the benchmark's n=200, d=16 snapshot one clustering call allocates
   the malicious mask, the correct vertices, the compressed undirected
   closure (n + 1 offsets, up to 2 * edges neighbors) and two stamp/fill
   arrays: 7848 words, 2.41 (n + edges).  [Naive] allocates 57245 words
   (17.6 (n + edges)): a table per vertex and a list and array per
   sampled vertex. *)
let clustering_allocation_bounded () =
  let rng = Basalt_prng.Rng.create ~seed:2 in
  let g =
    Digraph.of_views ~n:200 (fun _ ->
        Array.init 16 (fun _ -> id (Basalt_prng.Rng.int rng 200)))
  in
  let is_malicious u = u >= 180 in
  let words =
    words_of (fun () ->
        ignore (Metrics.clustering_coefficient ~rng ~is_malicious g))
  in
  let budget = 5 * (Digraph.n g + Digraph.edge_count g) / 2 in
  check_bool
    (Printf.sprintf "clustering allocates %.0f words (budget %d)" words budget)
    true
    (words <= float_of_int budget)

(* --- Isolation --- *)

let isolation_cases () =
  let is_mal p = Node_id.to_int p >= 100 in
  check_bool "empty view isolated" true (Isolation.is_isolated ~is_malicious:is_mal [||]);
  check_bool "all malicious isolated" true
    (Isolation.is_isolated ~is_malicious:is_mal [| id 100; id 101 |]);
  check_bool "one correct saves" false
    (Isolation.is_isolated ~is_malicious:is_mal [| id 100; id 3 |])

(* --- Generators --- *)

let gen_rng () = Basalt_prng.Rng.create ~seed:33

let generators_erdos_renyi () =
  let g = Generators.erdos_renyi (gen_rng ()) ~n:200 ~p:0.1 in
  check_int "n" 200 (Digraph.n g);
  (* Expected edges: n(n-1)p = 3980; allow 10%. *)
  let e = Digraph.edge_count g in
  check_bool (Printf.sprintf "edge count (%d)" e) true
    (abs (e - 3980) < 400);
  (* The clustering metric works on the undirected closure, where a pair
     is adjacent with probability 1 - (1-p)^2 = 2p - p^2. *)
  let cc =
    Metrics.clustering_coefficient ~rng:(gen_rng ()) ~is_malicious:no_malicious g
  in
  let expected = (2.0 *. 0.1) -. (0.1 *. 0.1) in
  check_bool
    (Printf.sprintf "clustering ~ 2p - p^2 (%.3f)" cc)
    true
    (Float.abs (cc -. expected) < 0.03);
  Alcotest.check_raises "p range"
    (Invalid_argument "Generators.erdos_renyi: p out of [0,1]") (fun () ->
      ignore (Generators.erdos_renyi (gen_rng ()) ~n:5 ~p:1.5))

let generators_k_out () =
  let g = Generators.k_out (gen_rng ()) ~n:100 ~k:8 in
  for u = 0 to 99 do
    check_int "out-degree k" 8 (Digraph.out_degree g u)
  done;
  (* k-out graphs are (overwhelmingly likely) strongly connected, so
     every sampled source reaches the rest in a few hops. *)
  let mpl = Metrics.mean_path_length ~rng:(gen_rng ()) ~is_malicious:no_malicious g in
  check_bool (Printf.sprintf "finite short paths (%.2f)" mpl) true
    (Float.is_finite mpl && mpl > 1.0 && mpl < 4.0);
  check_int "k clamps at n-1" 4 (Digraph.out_degree (Generators.k_out (gen_rng ()) ~n:5 ~k:10) 0)

let generators_ring () =
  let g = Generators.ring (gen_rng ()) ~n:10 in
  check_int "edges" 10 (Digraph.edge_count g);
  check_bool "is a cycle" true (Array.mem 0 (Digraph.out_neighbors g 9));
  let mpl = Metrics.mean_path_length ~rng:(gen_rng ()) ~is_malicious:no_malicious g in
  (* Directed ring of n: mean distance = n/2 = 5. *)
  check_bool (Printf.sprintf "long paths (%.2f)" mpl) true (Float.abs (mpl -. 5.0) < 0.01);
  let g2 = Generators.ring ~shortcuts:30 (gen_rng ()) ~n:100 in
  let mpl_ring =
    Metrics.mean_path_length ~rng:(gen_rng ()) ~is_malicious:no_malicious
      (Generators.ring (gen_rng ()) ~n:100)
  in
  let mpl_sw = Metrics.mean_path_length ~rng:(gen_rng ()) ~is_malicious:no_malicious g2 in
  check_bool "shortcuts shrink paths" true (mpl_sw < mpl_ring)

let generators_preferential () =
  let g = Generators.preferential_attachment (gen_rng ()) ~n:300 ~out_degree:3 in
  check_int "n" 300 (Digraph.n g);
  (* Preferential attachment concentrates in-degree far more than k-out:
     compare the max in-degree. *)
  let max_in a = Array.fold_left max 0 a in
  let pa_max = max_in (Digraph.in_degrees g) in
  let ko_max =
    max_in (Digraph.in_degrees (Generators.k_out (gen_rng ()) ~n:300 ~k:3))
  in
  check_bool
    (Printf.sprintf "heavy tail (pa=%d vs kout=%d)" pa_max ko_max)
    true (pa_max > 2 * ko_max)

let () =
  Alcotest.run "graph"
    [
      ( "digraph",
        [
          Alcotest.test_case "dedup/self-loop" `Quick digraph_dedup_selfloop;
          Alcotest.test_case "out of range" `Quick digraph_out_of_range;
          Alcotest.test_case "in-degrees" `Quick digraph_in_degrees;
          Alcotest.test_case "of_views" `Quick digraph_of_views;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "clustering complete" `Quick clustering_complete;
          Alcotest.test_case "clustering star" `Quick clustering_star;
          Alcotest.test_case "clustering malicious convention" `Quick
            clustering_malicious_convention;
          Alcotest.test_case "path length chain" `Quick path_length_chain;
          Alcotest.test_case "paths skip malicious" `Quick
            path_length_skips_malicious;
          Alcotest.test_case "indegree metrics" `Quick indegree_metrics;
          Alcotest.test_case "indegree ignores malicious" `Quick
            indegree_ignores_malicious_edges;
          Check.to_alcotest ~suite:"metrics" prop_kernels_match_naive;
          Alcotest.test_case "clustering allocation bounded" `Quick
            clustering_allocation_bounded;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "cases" `Quick isolation_cases;
        ] );
      ( "generators",
        [
          Alcotest.test_case "erdos-renyi" `Quick generators_erdos_renyi;
          Alcotest.test_case "k-out" `Quick generators_k_out;
          Alcotest.test_case "ring" `Quick generators_ring;
          Alcotest.test_case "preferential attachment" `Quick
            generators_preferential;
        ] );
    ]
