(* Tests for basalt.experiments: scales, experiment wiring, and the
   paper's qualitative claims at quick scale (shape-level regression
   tests for the reproduction). *)

open Basalt_experiments

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Scale --- *)

let scale_parsing () =
  check_bool "quick" true (Scale.of_string "quick" = Ok Scale.Quick);
  check_bool "standard" true (Scale.of_string "standard" = Ok Scale.Standard);
  check_bool "full" true (Scale.of_string "full" = Ok Scale.Full);
  check_bool "unknown" true (Result.is_error (Scale.of_string "huge"));
  Alcotest.(check string) "round trip" "quick" (Scale.to_string Scale.Quick)

let scale_monotone () =
  check_bool "n grows" true (Scale.n Scale.Quick < Scale.n Scale.Standard);
  check_bool "n grows 2" true (Scale.n Scale.Standard < Scale.n Scale.Full);
  check_bool "v grows" true (Scale.v Scale.Quick < Scale.v Scale.Full);
  List.iter
    (fun s ->
      check_bool "axes non-empty" true
        (Scale.view_sizes s <> [] && Scale.byzantine_fractions s <> []
        && Scale.forces s <> [] && Scale.sampling_rates s <> []);
      check_bool "seeds non-empty" true (Scale.seeds s <> []))
    [ Scale.Quick; Scale.Standard; Scale.Full ]

(* --- Theory (fast, closed-form) --- *)

let theory_worked_examples () =
  let w = Theory.worked_examples () in
  check_bool "joining bound < 1e-10" true (w.Theory.joining_bound < 1e-10);
  check_bool "delta_c >= 467" true (w.Theory.delta_c >= 467.0);
  check_bool "c_next >= 592" true (w.Theory.c_next >= 592.0);
  check_bool "safe_c ~ 585" true (w.Theory.safe_c > 580.0 && w.Theory.safe_c < 590.0)

let theory_equilibria_rows () =
  let rows = Theory.equilibria ~scale:Scale.Quick () in
  check_int "one row per view size" (List.length (Scale.view_sizes Scale.Quick))
    (List.length rows);
  List.iter
    (fun r ->
      match (r.Theory.b1, r.Theory.b2) with
      | Some b1, Some b2 ->
          check_bool "b1 < b2" true (b1 < b2);
          check_bool "b1 above f" true (b1 > 0.1)
      | _ -> ())
    rows

(* --- Fig2 wiring --- *)

let fig2_panel_names () =
  check_int "four panels" 4 (List.length Fig2.all_panels);
  List.iter
    (fun p -> check_bool "named" true (String.length (Fig2.panel_name p) > 0))
    Fig2.all_panels

(* The paper's core claims, regression-tested at quick scale.  One shared
   run of fig2a keeps the suite fast. *)
let fig2a_rows = lazy (Fig2.run ~scale:Scale.Quick Fig2.F_byzantine)

let fig2a_shape () =
  let rows = Lazy.force fig2a_rows in
  check_int "row per fraction"
    (List.length (Scale.byzantine_fractions Scale.Quick))
    (List.length rows);
  List.iter
    (fun r ->
      let basalt = r.Fig2.basalt.Basalt_sim.Sweep.mean_sample_byz in
      let brahms = r.Fig2.brahms.Basalt_sim.Sweep.mean_sample_byz in
      (* Basalt must stay close to optimal and beat Brahms (§4.4). *)
      check_bool
        (Printf.sprintf "basalt near optimal at f=%.2f" r.Fig2.x)
        true
        (basalt < r.Fig2.optimal +. 0.1);
      check_bool
        (Printf.sprintf "basalt beats brahms at f=%.2f" r.Fig2.x)
        true (basalt < brahms))
    rows

let fig2a_basalt_never_isolates () =
  List.iter
    (fun r ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "no isolation at f=%.2f" r.Fig2.x)
        0.0 r.Fig2.basalt.Basalt_sim.Sweep.mean_isolated)
    (Lazy.force fig2a_rows)

let fig2_columns_shape () =
  let rows, cols = Fig2.columns (Lazy.force fig2a_rows) in
  check_int "column count" 6 (List.length cols);
  check_bool "row count" true (rows > 0)

(* --- SPS failure (the §4.3 claim) --- *)

let sps_failure_claim () =
  let rows = Sps_failure.run ~scale:Scale.Quick () in
  let find name = List.find (fun r -> r.Sps_failure.protocol = name) rows in
  (* SPS collapses; Basalt and Brahms keep everyone connected. *)
  check_bool "sps mostly isolated" true
    ((find "sps").Sps_failure.isolated_fraction > 0.5);
  check_bool "basalt no isolation" true
    ((find "basalt").Sps_failure.isolated_fraction = 0.0);
  check_bool "brahms no isolation" true
    ((find "brahms").Sps_failure.isolated_fraction = 0.0)

(* --- Cost accounting --- *)

let cost_budget () =
  let rows = Cost.run ~scale:Scale.Quick () in
  check_int "four protocols" 4 (List.length rows);
  List.iter
    (fun r ->
      check_bool (r.Cost.protocol ^ " fits MTU") true r.Cost.fits_mtu;
      check_bool
        (r.Cost.protocol ^ " ~2 msgs/round (plus replies)")
        true
        (r.Cost.msgs_per_node_round >= 1.0 && r.Cost.msgs_per_node_round <= 4.0))
    rows

(* --- Sybil extension --- *)

let sybil_prefix_layout () =
  let layout = Sybil.prefix_layout ~honest:100 ~honest_prefixes:10 ~attacker_prefixes:2 in
  check_int "honest spread" 3 (layout 3);
  check_int "honest wraps" 3 (layout 13);
  check_int "attacker prefix base" 10 (layout 100);
  check_int "attacker cycles" 11 (layout 101);
  check_int "attacker wraps" 10 (layout 102)

(* --- Uniformity statistics --- *)

let uniformity_of_histogram () =
  (* Perfectly uniform histogram: zero TV distance and CV. *)
  let r = Uniformity.of_histogram ~sampler:"t" ~correct:4 [| 5; 5; 5; 5; 99 |] in
  check_int "samples counted over correct only" 20 r.Uniformity.samples;
  check_bool "tv zero" true (Float.abs r.Uniformity.tv_distance < 1e-9);
  check_bool "cv zero" true (Float.abs r.Uniformity.coeff_variation < 1e-9);
  check_bool "max/mean one" true (Float.abs (r.Uniformity.max_over_mean -. 1.0) < 1e-9);
  (* Fully concentrated: TV = 1 - 1/n. *)
  let c = Uniformity.of_histogram ~sampler:"t" ~correct:4 [| 20; 0; 0; 0 |] in
  check_bool "tv of point mass" true
    (Float.abs (c.Uniformity.tv_distance -. 0.75) < 1e-9);
  (* Empty histogram: nan statistics, zero samples. *)
  let e = Uniformity.of_histogram ~sampler:"t" ~correct:3 [| 0; 0; 0 |] in
  check_int "no samples" 0 e.Uniformity.samples;
  check_bool "nan tv" true (Float.is_nan e.Uniformity.tv_distance)

(* --- Robustness under fault plans (DESIGN.md §10) --- *)

(* Under `dune runtest` the suite runs from the build sandbox, where
   the (source_tree ../scenarios) dep lands one level up. *)
let scenarios_dir =
  if Sys.file_exists "../scenarios" then "../scenarios/" else "scenarios/"

(* The committed robustness_net.scn, run through the matrix driver and
   read back through its rendered columns — what `repro robustness-net`
   prints. *)
let robustness_net_rows () =
  let module Matrix = Basalt_scenario.Matrix in
  let spec =
    match Basalt_scenario.Spec.load (scenarios_dir ^ "robustness_net.scn") with
    | Ok spec -> spec
    | Error (`Unreadable msg | `Invalid msg) -> Alcotest.fail msg
  in
  let nrows, cols =
    Matrix.columns spec (Matrix.run ~scale:Scale.Quick spec)
  in
  check_int "four conditions" 4 nrows;
  let cell header i =
    (List.find (fun c -> c.Basalt_sim.Report.header = header) cols)
      .Basalt_sim.Report.cell i
  in
  let conditions = List.init nrows (cell "condition") in
  List.iteri
    (fun i c ->
      (* Basalt must ride out every fault plan at quick scale. *)
      check_bool (c ^ ": basalt converges") true
        (cell "basalt_time" i <> "no-convergence");
      check_bool (c ^ ": basalt near optimal") true
        (float_of_string (cell "basalt_samples_byz" i) < 0.2))
    conditions;
  (* The delivery column reflects the injected transport faults. *)
  let delivered c =
    let rec index i = function
      | c' :: rest -> if c' = c then i else index (i + 1) rest
      | [] -> Alcotest.failf "no condition %s" c
    in
    float_of_string (cell "basalt_delivered/sent" (index 0 conditions))
  in
  check_bool "burst loss drops messages" true (delivered "burst-loss" < 1.0);
  check_bool "duplication delivers extras" true (delivered "dup-reorder" > 1.0);
  check_bool "partition drops below clean" true
    (delivered "partition" < delivered "clean")

(* --- Timeline --- *)

let timeline_spec () =
  check_bool "default ok" true (Result.is_ok (Timeline.spec ()));
  check_bool "unknown protocol" true
    (Result.is_error (Timeline.spec ~protocol:"raft" ()));
  match Timeline.spec ~protocol:"classic" ~n:80 ~v:8 ~steps:10.0 () with
  | Error e -> Alcotest.fail e
  | Ok s ->
      let r = Timeline.run s in
      check_bool "series recorded" true
        (Basalt_sim.Measurements.length r.Basalt_sim.Runner.series >= 10)

(* --- Live deployment --- *)

let live_rows () =
  let rows, result = Live.run ~scale:Scale.Quick () in
  check_int "three samplers" 3 (List.length rows);
  check_bool "witness not eclipsed" false
    result.Basalt_avalanche.Deployment.witness_isolated;
  List.iter
    (fun r ->
      check_bool
        (r.Live.sampler ^ " proportion sane")
        true
        (r.Live.malicious_proportion >= 0.0 && r.Live.malicious_proportion <= 0.5))
    rows

let () =
  Alcotest.run "experiments"
    [
      ( "scale",
        [
          Alcotest.test_case "parsing" `Quick scale_parsing;
          Alcotest.test_case "monotone" `Quick scale_monotone;
        ] );
      ( "theory",
        [
          Alcotest.test_case "worked examples" `Quick theory_worked_examples;
          Alcotest.test_case "equilibria rows" `Quick theory_equilibria_rows;
        ] );
      ( "fig2",
        [
          Alcotest.test_case "panel names" `Quick fig2_panel_names;
          Alcotest.test_case "fig2a shape (paper claim)" `Slow fig2a_shape;
          Alcotest.test_case "basalt never isolates" `Slow
            fig2a_basalt_never_isolates;
          Alcotest.test_case "columns shape" `Slow fig2_columns_shape;
        ] );
      ( "sps_failure",
        [ Alcotest.test_case "section 4.3 claim" `Slow sps_failure_claim ] );
      ( "cost",
        [ Alcotest.test_case "budget check" `Slow cost_budget ] );
      ( "sybil",
        [ Alcotest.test_case "prefix layout" `Quick sybil_prefix_layout ] );
      ( "uniformity",
        [ Alcotest.test_case "of_histogram" `Quick uniformity_of_histogram ] );
      ( "robustness_net",
        [ Alcotest.test_case "fault-plan sweep" `Slow robustness_net_rows ] );
      ( "timeline",
        [ Alcotest.test_case "spec and run" `Quick timeline_spec ] );
      ( "live",
        [ Alcotest.test_case "section 5 rows" `Slow live_rows ] );
    ]
