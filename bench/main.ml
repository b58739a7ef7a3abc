(* Benchmark harness.

   Two parts:

   1. Regeneration of every table/figure of the paper's evaluation at
      quick scale — the same code paths as [bin/repro.exe], producing the
      rows/series the paper reports (§4 Figs. 2-5, the §4.3 SPS result,
      the §5 deployment, Table 1, and the §3 theory numbers).

   2. Bechamel micro-benchmarks of the hot operations behind those
      experiments (one group per figure plus core-op and ablation
      groups, per DESIGN.md §4). *)

open Bechamel
open Toolkit
module Scale = Basalt_experiments.Scale
module Scenario = Basalt_sim.Scenario
module Runner = Basalt_sim.Runner
module Rank = Basalt_hashing.Rank
module Rng = Basalt_prng.Rng
module Pool = Basalt_parallel.Pool
module Sweep = Basalt_sim.Sweep

let scale = Scale.Quick

(* --- CLI -------------------------------------------------------------- *)

(* [--only G1,G2] runs just the micro-benchmark groups whose names start
   with one of the given prefixes (and skips the part-1 figure
   regeneration); [--json FILE] additionally writes the measured ns/run
   numbers in the machine-readable form `tool/bench_gate` consumes. *)

let only : string list option ref = ref None
let json_path : string option ref = ref None
let json_acc : (string * (string * float) list) list ref = ref []

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--only" :: spec :: rest ->
        only := Some (List.map String.trim (String.split_on_char ',' spec));
        go rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        go rest
    | arg :: _ ->
        Printf.eprintf
          "bench: unknown argument %s\n\
           usage: bench [--only GROUP,GROUP,...] [--json FILE]\n"
          arg;
        exit 2
  in
  go (List.tl (Array.to_list Sys.argv))

let group_selected name =
  match !only with
  | None -> true
  | Some sels ->
      List.exists
        (fun sel ->
          sel <> ""
          && String.length name >= String.length sel
          && String.sub name 0 (String.length sel) = sel)
        sels

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json path =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"unit\": \"ns/run\",\n  \"groups\": {\n";
  let groups = List.rev !json_acc in
  List.iteri
    (fun gi (group, rows) ->
      Printf.fprintf oc "    \"%s\": {\n" (json_escape group);
      List.iteri
        (fun ri (test_name, ns) ->
          Printf.fprintf oc "      \"%s\": %s%s\n" (json_escape test_name)
            (if Float.is_nan ns then "null" else Printf.sprintf "%.1f" ns)
            (if ri = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "    }%s\n"
        (if gi = List.length groups - 1 then "" else ","))
    groups;
  Printf.fprintf oc "  }\n}\n";
  close_out oc

(* --- Part 1: paper series ------------------------------------------- *)

let regenerate_figures () =
  print_endline "=== Part 1: paper tables and figures (quick scale) ===";
  print_endline
    "(run `basalt-repro all --scale standard` or `--scale full` for larger\n\
    \ networks; see EXPERIMENTS.md for recorded paper-vs-measured results)\n";
  Basalt_experiments.Params.print ~scale ();
  Basalt_experiments.Theory.print ~scale ();
  List.iter (Basalt_experiments.Fig2.print ~scale) Basalt_experiments.Fig2.all_panels;
  Basalt_experiments.Fig3.print ~scale ();
  Basalt_experiments.Fig4.print ~scale ();
  Basalt_experiments.Fig5.print ~scale ();
  Basalt_experiments.Sps_failure.print ~scale ();
  Basalt_experiments.Live.print ~scale ();
  Basalt_experiments.Cost.print ~scale ();
  Basalt_experiments.Uniformity.print ~scale ()

(* --- Part 2: micro-benchmarks ---------------------------------------- *)

let ns_of_run = function Some (e :: _) -> e | Some [] | None -> Float.nan

let run_group_now ~name tests =
  let grouped = Test.make_grouped ~name ~fmt:"%s/%s" tests in
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second 0.4) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun test_name ols acc ->
        (test_name, ns_of_run (Analyze.OLS.estimates ols)) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Printf.printf "-- %s\n" name;
  List.iter
    (fun (test_name, ns) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.2f ns" ns
      in
      Printf.printf "   %-48s %s/run\n" test_name human)
    rows;
  json_acc := (name, rows) :: !json_acc;
  print_newline ()

let run_group ~name tests =
  if group_selected name then run_group_now ~name tests

(* Micro run: a small but complete simulated experiment (the unit of work
   behind every figure). *)
let micro_scenario ?(protocol = Scenario.Basalt (Basalt_core.Config.make ~v:16 ~k:4 ()))
    ?(f = 0.1) ?(force = 10.0) ?(graph_metrics = false) () =
  Scenario.make ~name:"bench" ~n:120 ~f ~force ~protocol ~steps:20.0
    ~graph_metrics ()

let sim_test name scenario =
  Test.make ~name (Staged.stage (fun () -> ignore (Runner.run scenario)))

(* One group per figure: the benchmarked unit is one Monte-Carlo run with
   that figure's distinguishing configuration. *)
let fig_groups () =
  run_group ~name:"fig2 (per-point run: basalt vs brahms, F=10)"
    [
      sim_test "basalt" (micro_scenario ());
      sim_test "brahms"
        (micro_scenario
           ~protocol:(Scenario.Brahms (Basalt_brahms.Brahms_config.make ~l:16 ~k:4 ()))
           ());
    ];
  run_group ~name:"fig3 (convergence measurement run)"
    [
      Test.make ~name:"run+convergence"
        (Staged.stage (fun () ->
             let r = Runner.run (micro_scenario ()) in
             ignore
               (Basalt_sim.Measurements.convergence_time ~optimal:0.1
                  ~within:0.25 r.Runner.series)));
    ];
  run_group ~name:"fig4 (run with graph metrics)"
    [
      sim_test "basalt+metrics" (micro_scenario ~graph_metrics:true ~force:1.0 ());
    ];
  run_group ~name:"fig5 (isolation probe at one (v, rho) point)"
    [
      Test.make ~name:"probe"
        (Staged.stage (fun () ->
             let r =
               Runner.run
                 (micro_scenario
                    ~protocol:(Scenario.Basalt (Basalt_core.Config.make ~v:16 ~k:4 ~rho:2.0 ()))
                    ())
             in
             ignore r.Runner.ever_isolated_after_half));
    ];
  run_group ~name:"sps-failure (f=0.3, F=0 run)"
    [
      sim_test "sps"
        (Scenario.make ~name:"bench" ~n:120 ~f:0.3 ~force:0.0
           ~strategy:Basalt_adversary.Adversary.Silent
           ~protocol:(Scenario.Sps (Basalt_sps.Sps.config ~l:16 ()))
           ~steps:20.0 ());
    ];
  run_group ~name:"live (deployment measurement)"
    [
      Test.make ~name:"deployment"
        (Staged.stage (fun () ->
             ignore
               (Basalt_avalanche.Deployment.run
                  (Basalt_avalanche.Deployment.config ~n:120 ~adversarial:24
                     ~v:16 ~steps:20.0 ()))));
    ];
  run_group ~name:"theory (Section 3 computations)"
    [
      Test.make ~name:"ode-trajectory"
        (Staged.stage (fun () ->
             ignore
               (Basalt_analysis.Model.trajectory
                  (Basalt_analysis.Model.env ())
                  ~b0:0.5 ~t1:100.0 ~dt:0.1)));
      Test.make ~name:"equilibria"
        (Staged.stage (fun () ->
             ignore
               (Basalt_analysis.Model.equilibria (Basalt_analysis.Model.env ()))));
      Test.make ~name:"isolation-bounds"
        (Staged.stage (fun () ->
             ignore (Basalt_experiments.Theory.worked_examples ())));
    ]

(* Core operations: the simulator's hot paths. *)
let core_ops () =
  let rng = Rng.create ~seed:1 in
  let ids = Array.init 161 Basalt_proto.Node_id.of_int in
  let basalt =
    Basalt_core.Basalt.create
      ~config:(Basalt_core.Config.make ~v:160 ())
      ~id:(Basalt_proto.Node_id.of_int 9999)
      ~bootstrap:ids ~rng
      ~send:(fun ~dst:_ _ -> ())
      ()
  in
  (* Miss path: every run offers 100 identifiers the node has never seen
     to a v=100 view, so the seen-cache admits all of them and every
     (slot, id) pair is ranked — the shape of flood traffic.  The node
     is rebuilt every 1000 runs so its seen-cache stays bounded. *)
  let fresh_node () =
    Basalt_core.Basalt.create
      ~config:(Basalt_core.Config.make ~v:100 ())
      ~id:(Basalt_proto.Node_id.of_int max_int)
      ~bootstrap:[||] ~rng
      ~send:(fun ~dst:_ _ -> ())
      ()
  in
  let fresh = ref (fresh_node ()) and fresh_runs = ref 0 in
  let fresh_ids = Array.make 100 (Basalt_proto.Node_id.of_int 0) in
  let update_fresh () =
    if !fresh_runs = 1000 then begin
      fresh := fresh_node ();
      fresh_runs := 0
    end;
    let base = 100 * !fresh_runs in
    incr fresh_runs;
    for j = 0 to 99 do
      fresh_ids.(j) <- Basalt_proto.Node_id.of_int (base + j)
    done;
    Basalt_core.Basalt.update_sample !fresh fresh_ids
  in
  (* Brahms has no seen-cache: a pull reply ranks every id against every
     sampler.  The reply also lands in the round's pending-pull list, so
     the node is rebuilt every 1000 runs to keep that list bounded. *)
  let brahms_node () =
    Basalt_brahms.Brahms.create
      ~config:(Basalt_brahms.Brahms_config.make ~l:100 ())
      ~id:(Basalt_proto.Node_id.of_int max_int)
      ~bootstrap:[||] ~rng
      ~send:(fun ~dst:_ _ -> ())
      ()
  in
  let brahms = ref (brahms_node ()) and brahms_runs = ref 0 in
  let reply = Basalt_proto.Message.Pull_reply (Array.init 100 Basalt_proto.Node_id.of_int) in
  let replier = Basalt_proto.Node_id.of_int 100 in
  let brahms_pull_reply () =
    if !brahms_runs = 1000 then begin
      brahms := brahms_node ();
      brahms_runs := 0
    end;
    incr brahms_runs;
    Basalt_brahms.Brahms.on_message !brahms ~from:replier reply
  in
  let siphash_key = Basalt_hashing.Siphash.key_of_rng rng in
  let cheap_seed = Rank.of_int Rank.Cheap 42 in
  let keyed_seed = Rank.of_int (Rank.Keyed_cheap 0x2545F4914F6CDD1D) 42 in
  let sip_seed = Rank.of_int (Rank.Siphash siphash_key) 42 in
  run_group ~name:"core ops"
    [
      (* Steady state: the same candidates re-offered to unchanged seeds,
         so the batch pass reduces to its seen-cache intake — the shape of
         a node re-digesting pull replies between slot resets. *)
      Test.make ~name:"update_sample (v=160, 161 ids)"
        (Staged.stage (fun () -> Basalt_core.Basalt.update_sample basalt ids));
      Test.make ~name:"update_sample fresh ids (v=100, 100 ids)"
        (Staged.stage update_fresh);
      Test.make ~name:"brahms pull_reply feed (l=100, 100 ids)"
        (Staged.stage brahms_pull_reply);
      Test.make ~name:"sample_tick (v=160, k=80)"
        (Staged.stage (fun () -> ignore (Basalt_core.Basalt.sample_tick basalt)));
      Test.make ~name:"rank (cheap mixer)"
        (Staged.stage (fun () -> ignore (Rank.rank cheap_seed 123456)));
      Test.make ~name:"rank (keyed-cheap mixer)"
        (Staged.stage (fun () -> ignore (Rank.rank keyed_seed 123456)));
      (* Midstate-resumed: the key + seed block is absorbed at seed-draw
         time, each evaluation finishes only the identifier block. *)
      Test.make ~name:"rank (siphash-2-4)"
        (Staged.stage (fun () -> ignore (Rank.rank sip_seed 123456)));
      Test.make ~name:"rank (siphash-2-4, no midstate)"
        (Staged.stage (fun () ->
             ignore
               (Basalt_hashing.Siphash.hash_int64_pair siphash_key 42L 123456L)));
      Test.make ~name:"rng int"
        (Staged.stage (fun () -> ignore (Rng.int rng 1000)));
    ]

let graph_ops () =
  let rng = Rng.create ~seed:2 in
  (* A random 200-vertex, out-degree-16 snapshot. *)
  let g =
    Basalt_graph.Digraph.of_views ~n:200 (fun _ ->
        Array.init 16 (fun _ -> Basalt_proto.Node_id.of_int (Rng.int rng 200)))
  in
  let is_malicious u = u >= 180 in
  run_group ~name:"graph metrics (n=200, d=16 snapshot)"
    [
      Test.make ~name:"clustering"
        (Staged.stage (fun () ->
             ignore
               (Basalt_graph.Metrics.clustering_coefficient ~rng ~is_malicious g)));
      Test.make ~name:"mean path length"
        (Staged.stage (fun () ->
             ignore (Basalt_graph.Metrics.mean_path_length ~rng ~is_malicious g)));
      Test.make ~name:"indegree decile spread"
        (Staged.stage (fun () ->
             ignore (Basalt_graph.Metrics.indegree_decile_spread ~is_malicious g)));
    ]

let codec_ops () =
  let msg = Basalt_proto.Message.Push (Array.init 160 Basalt_proto.Node_id.of_int) in
  let encoded = Basalt_codec.Wire.encode msg in
  let sender = Basalt_proto.Node_id.of_int 77 in
  let frame = Basalt_net.Frame.encode ~sender msg in
  run_group ~name:"wire codec (160-id view)"
    [
      Test.make ~name:"encode" (Staged.stage (fun () -> ignore (Basalt_codec.Wire.encode msg)));
      Test.make ~name:"decode"
        (Staged.stage (fun () -> ignore (Basalt_codec.Wire.decode encoded)));
      Test.make ~name:"frame encode"
        (Staged.stage (fun () -> ignore (Basalt_net.Frame.encode ~sender msg)));
      Test.make ~name:"frame decode"
        (Staged.stage (fun () ->
             let d = Basalt_net.Frame.Decoder.create () in
             ignore
               (Basalt_net.Frame.Decoder.feed d frame ~off:0
                  ~len:(Bytes.length frame))));
    ]

(* Multi-seed fan-out through the domain pool (DESIGN.md §7).  The
   benchmarked unit is an 8-seed batch of the micro scenario — the same
   shape `Sweep` hands the pool under `repro -j N`.  On a single-core
   host j=4 is expected to match j=1 (the pool adds little overhead but
   no parallelism); the speedup target lives on multi-core CI. *)
let sweep_throughput () =
  (* Guarded as a whole so a filtered run never spawns domains. *)
  if group_selected "sweep throughput (8-seed batch)" then begin
    let scenario = micro_scenario () in
    let seeds = List.init 8 (fun i -> i + 1) in
    let pool = Pool.create ~domains:4 () in
    run_group ~name:"sweep throughput (8-seed batch)"
      [
        Test.make ~name:"j=1"
          (Staged.stage (fun () -> ignore (Sweep.run_seeds scenario ~seeds)));
        Test.make ~name:"j=4"
          (Staged.stage (fun () ->
               ignore (Sweep.run_seeds ~pool scenario ~seeds)));
      ];
    Pool.shutdown pool
  end

(* The broadcast layer's hot path (DESIGN.md §11): publishing (mid
   allocation, cache insert, local delivery, one eager push per mesh
   peer), receiving a fresh data frame (dedup miss, cache insert,
   forward), and rejecting a duplicate (dedup hit — the per-frame cost
   every relay pays under redundancy). *)
let gossip_ops () =
  let peers = Array.init 64 Basalt_proto.Node_id.of_int in
  let make seed =
    Basalt_gossip.Gossip.create
      ~node:(Basalt_proto.Node_id.of_int 9999)
      ~view:(fun () -> peers)
      ~rng:(Rng.create ~seed)
      ~send:(fun ~dst:_ _ -> ())
      ~deliver:(fun _ _ -> ())
      ()
  in
  let publisher = make 1 in
  let receiver = make 2 in
  let dup_receiver = make 3 in
  (* Fill the meshes the way the protocol does. *)
  List.iter
    (fun g ->
      Basalt_gossip.Gossip.on_samples g (Array.to_list peers);
      Basalt_gossip.Gossip.heartbeat g)
    [ publisher; receiver; dup_receiver ];
  let payload = Bytes.make 32 'x' in
  let fresh_seqno = ref 0 in
  let origin = Basalt_proto.Node_id.of_int 17 in
  let dup_frame =
    Basalt_proto.Message.Gossip
      { mid = { origin; seqno = 0 }; hops = 1; payload }
  in
  ignore
    (Basalt_gossip.Gossip.on_message dup_receiver ~from:origin dup_frame);
  run_group ~name:"gossip ops"
    [
      Test.make ~name:"publish (mesh=4, 32-byte payload)"
        (Staged.stage (fun () ->
             ignore (Basalt_gossip.Gossip.publish publisher payload)));
      Test.make ~name:"on_message fresh data"
        (Staged.stage (fun () ->
             incr fresh_seqno;
             ignore
               (Basalt_gossip.Gossip.on_message receiver ~from:origin
                  (Basalt_proto.Message.Gossip
                     { mid = { origin; seqno = !fresh_seqno }; hops = 1; payload }))));
      Test.make ~name:"on_message duplicate data"
        (Staged.stage (fun () ->
             ignore
               (Basalt_gossip.Gossip.on_message dup_receiver ~from:origin
                  dup_frame)));
      Test.make ~name:"heartbeat (64-peer view)"
        (Staged.stage (fun () -> Basalt_gossip.Gossip.heartbeat receiver));
    ]

(* Observability overhead (DESIGN.md §8): the same update_sample unit as
   "core ops", once against the disabled sink (the default — instrument
   mutations are dead stores into unregistered dummies) and once against
   an enabled registry (shared per-run counters).  The pre-PR baseline
   and the recorded disabled-vs-enabled numbers live in
   BENCH_obs_overhead.json; the acceptance bar is < 2% regression for
   the disabled sink. *)
let obs_overhead () =
  let ids = Array.init 161 Basalt_proto.Node_id.of_int in
  let make obs =
    Basalt_core.Basalt.create
      ~config:(Basalt_core.Config.make ~v:160 ())
      ~obs
      ~id:(Basalt_proto.Node_id.of_int 9999)
      ~bootstrap:ids
      ~rng:(Rng.create ~seed:1)
      ~send:(fun ~dst:_ _ -> ())
      ()
  in
  let disabled = make Basalt_obs.Obs.disabled in
  let enabled = make (Basalt_obs.Obs.create ()) in
  run_group ~name:"obs overhead (update_sample, v=160, 161 ids)"
    [
      Test.make ~name:"sink disabled"
        (Staged.stage (fun () -> Basalt_core.Basalt.update_sample disabled ids));
      Test.make ~name:"sink enabled"
        (Staged.stage (fun () -> Basalt_core.Basalt.update_sample enabled ids));
    ]

(* Ablations called out in DESIGN.md §4. *)
let ablations () =
  run_group ~name:"ablation: replacement count k"
    [
      sim_test "k=1"
        (micro_scenario ~protocol:(Scenario.Basalt (Basalt_core.Config.make ~v:16 ~k:1 ())) ());
      sim_test "k=v/2"
        (micro_scenario ~protocol:(Scenario.Basalt (Basalt_core.Config.make ~v:16 ~k:8 ())) ());
    ];
  run_group ~name:"ablation: push payload (full view vs own id)"
    [
      sim_test "full-view"
        (micro_scenario
           ~protocol:(Scenario.Basalt (Basalt_core.Config.make ~v:16 ~k:4 ()))
           ());
      sim_test "own-id-only"
        (micro_scenario
           ~protocol:
             (Scenario.Basalt
                (Basalt_core.Config.make ~v:16 ~k:4 ~push_own_id_only:true ()))
           ());
    ];
  let sip = Rank.Siphash (Basalt_hashing.Siphash.key_of_ints 1L 2L) in
  run_group ~name:"ablation: rank backend"
    [
      sim_test "cheap-mixer"
        (micro_scenario
           ~protocol:(Scenario.Basalt (Basalt_core.Config.make ~v:16 ~k:4 ()))
           ());
      sim_test "siphash-2-4"
        (micro_scenario
           ~protocol:(Scenario.Basalt (Basalt_core.Config.make ~v:16 ~k:4 ~backend:sip ()))
           ());
    ];
  run_group ~name:"ablation: slot selection strategy"
    [
      sim_test "uniform"
        (micro_scenario
           ~protocol:
             (Scenario.Basalt
                (Basalt_core.Config.make ~v:16 ~k:4 ~select:Basalt_core.Config.Uniform_slot ()))
           ());
      sim_test "rotating"
        (micro_scenario
           ~protocol:
             (Scenario.Basalt
                (Basalt_core.Config.make ~v:16 ~k:4 ~select:Basalt_core.Config.Rotating_slot ()))
           ());
      sim_test "least-used"
        (micro_scenario
           ~protocol:
             (Scenario.Basalt
                (Basalt_core.Config.make ~v:16 ~k:4
                   ~select:Basalt_core.Config.Least_used_slot ()))
           ());
    ]

let () =
  parse_args ();
  if !only = None then begin
    regenerate_figures ();
    print_endline "=== Part 2: micro-benchmarks (Bechamel, OLS ns/run) ==="
  end;
  fig_groups ();
  core_ops ();
  graph_ops ();
  codec_ops ();
  sweep_throughput ();
  gossip_ops ();
  obs_overhead ();
  ablations ();
  (match !json_path with Some path -> write_json path | None -> ());
  print_endline "bench: done"
