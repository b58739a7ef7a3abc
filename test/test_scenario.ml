(* Tests for lib/scenario: the s-expression reader's print/parse
   round-trip, the malformed-input corpus with its pinned positioned
   diagnostics, the committed scenario files, and the static shape of
   the matrix expansion.  The subprocess-level contract (exit codes,
   the pinned quick-scale tables of the scenario-file targets) lives in
   test_cli.ml. *)

module Check = Basalt_check.Check
module Sexp = Basalt_scenario.Sexp
module Spec = Basalt_scenario.Spec
module Matrix = Basalt_scenario.Matrix

(* --- Sexp round-trip property --- *)

(* Atom contents deliberately include delimiters, quotes, backslashes
   and unprintable bytes so the property exercises the quoting and
   escaping paths, not just bare atoms. *)
let atom_char =
  Check.Gen.frequency
    [
      (6, Check.Gen.map Char.chr (Check.Gen.int_range 97 122));
      (2, Check.Gen.oneofl [ '0'; '5'; '9'; '.'; '-'; '/' ]);
      ( 2,
        Check.Gen.oneofl
          [ '('; ')'; ' '; '"'; '\\'; '\n'; '\t'; '\r'; ';'; '\000'; '\127' ]
      );
    ]

let atom_string =
  Check.Gen.map
    (fun cs -> String.concat "" (List.map (String.make 1) cs))
    (Check.Gen.list ~max_len:8 atom_char)

let rec sexp_gen depth =
  if depth = 0 then Check.Gen.map Sexp.atom atom_string
  else
    Check.Gen.frequency
      [
        (3, Check.Gen.map Sexp.atom atom_string);
        ( 2,
          Check.Gen.map Sexp.list
            (Check.Gen.list ~max_len:4 (sexp_gen (depth - 1))) );
      ]

let forms_gen = Check.Gen.list ~max_len:4 (sexp_gen 3)

let print_forms forms = String.concat " " (List.map Sexp.to_string forms)

let round_trip_prop =
  Check.prop ~name:"parse (print forms) = forms" ~print:print_forms forms_gen
    (fun forms ->
      match Sexp.parse_string (print_forms forms) with
      | Error _ -> false
      | Ok parsed ->
          List.length parsed = List.length forms
          && List.for_all2 Sexp.equal forms parsed)

let sexp_suite = Check.suite "scenario sexp" [ round_trip_prop ]

(* --- malformed corpus: every diagnostic is pinned --- *)

(* Under `dune runtest` the suite runs from the build sandbox (where
   the (source_tree ../scenarios) dep lands one level up); under
   `dune exec test/test_scenario.exe` it runs from the repo root. *)
let scenarios_dir =
  if Sys.file_exists "../scenarios" then "../scenarios/" else "scenarios/"

let corpus_dir = scenarios_dir ^ "corpus/"

(* (file, position-and-message after the file-name prefix).  These are
   the parser's user interface; error-message changes must be
   deliberate. *)
let corpus =
  [
    ("unbalanced.scn", "3:1: unclosed '(' (opened at line 1, column 1)");
    ("unexpected_close.scn", "1:23: unexpected ')'");
    ( "unterminated_string.scn",
      "2:1: unterminated string (opened at line 1, column 15)" );
    ("trailing.scn", "2:1: expected a single (matrix ...) form");
    ("not_matrix.scn", "1:1: expected a (matrix ...) form");
    ("bad_number.scn", "2:12: bad number '0.x'");
    ("bad_prob.scn", "2:12: probability '1.5' out of [0,1]");
    ("unknown_key.scn", "2:9: unknown setting 'pace'");
    ("dup_axis.scn", "1:1: duplicate axis 'condition'");
    ("empty_axis.scn", "3:3: axis 'condition' has no entries");
    ("bad_pivot.scn", "1:1: pivot 'proto' does not name an axis");
    ( "pivot_not_last.scn",
      "1:1: pivot axis 'condition' must be the last axis declared" );
    ( "unknown_metric.scn",
      "5:12: unknown metric 'latency' \
       (time|samples_byz|isolated|replacements|delivered/sent|delivered|t99|redundancy)"
    );
    ( "gossip_metric_no_app.scn",
      "5:12: metric 'delivered' needs (app (gossip ...))" );
    ( "no_protocol.scn",
      "1:1: no protocol bound: set (protocol ...) in (base ...) or on every \
       entry of an axis" );
    ("seeds_in_axis.scn", "3:26: (seeds ...) is only allowed in (base ...)");
    ("bad_start_frac.scn", "2:58: probability '1.5' out of [0,1]");
  ]

let corpus_diagnostics () =
  List.iter
    (fun (file, expected) ->
      let path = corpus_dir ^ file in
      match Spec.load path with
      | Ok _ -> Alcotest.failf "%s: expected a diagnostic, got Ok" file
      | Error (`Unreadable msg) ->
          Alcotest.failf "%s: expected `Invalid, got `Unreadable %s" file msg
      | Error (`Invalid msg) ->
          Alcotest.(check string) file (path ^ ":" ^ expected) msg)
    corpus

(* The corpus list and the directory must cover each other: a new
   corpus file without a pinned message (or vice versa) is a test
   hole. *)
let corpus_is_exhaustive () =
  let on_disk =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".scn")
    |> List.sort compare
  in
  let pinned = List.map fst corpus |> List.sort compare in
  Alcotest.(check (list string)) "corpus files all pinned" pinned on_disk

let missing_file_is_unreadable () =
  match Spec.load (corpus_dir ^ "no_such_file.scn") with
  | Error (`Unreadable msg) ->
      Alcotest.(check bool) "names the path" true
        (let needle = "no_such_file.scn" in
         let nl = String.length needle and hl = String.length msg in
         let rec go i =
           i + nl <= hl && (String.sub msg i nl = needle || go (i + 1))
         in
         go 0)
  | Ok _ | Error (`Invalid _) -> Alcotest.fail "expected `Unreadable"

(* --- committed scenario files --- *)

let load_ok path =
  match Spec.load path with
  | Ok spec -> spec
  | Error (`Unreadable msg) | Error (`Invalid msg) -> Alcotest.fail msg

let committed_files_load () =
  let spec = load_ok (scenarios_dir ^ "robustness_net.scn") in
  Alcotest.(check string) "name" "robustness-net" spec.Spec.name;
  Alcotest.(check string) "slug" "robustness_net" (Spec.slug spec);
  Alcotest.(check int) "two axes" 2 (List.length spec.Spec.axes);
  Alcotest.(check string) "pivot is protocol" "protocol"
    (Spec.pivot spec).Spec.axis_name;
  Alcotest.(check bool) "no app" true (spec.Spec.app = None);
  let spec = load_ok (scenarios_dir ^ "broadcast.scn") in
  Alcotest.(check string) "name" "broadcast" spec.Spec.name;
  Alcotest.(check int) "three axes" 3 (List.length spec.Spec.axes);
  Alcotest.(check bool) "mounts gossip" true (spec.Spec.app <> None);
  let spec = load_ok (scenarios_dir ^ "smoke.scn") in
  Alcotest.(check string) "name" "smoke" spec.Spec.name;
  Alcotest.(check (option (list int))) "explicit seeds" (Some [ 1; 2 ])
    spec.Spec.seeds;
  (* The three single-sweep files: one swept axis crossed with a
     protocol pivot, preset n/v/steps/seeds, no app. *)
  let metric_names spec =
    List.map
      (fun (m, labels) -> String.concat " " (Spec.metric_name m :: labels))
      spec.Spec.metrics
  in
  List.iter
    (fun (file, name, swept, protocols, metrics) ->
      let spec = load_ok (scenarios_dir ^ file) in
      Alcotest.(check string) (file ^ " name") name spec.Spec.name;
      Alcotest.(check (list string))
        (file ^ " axes") [ swept; "protocol" ]
        (List.map (fun ax -> ax.Spec.axis_name) spec.Spec.axes);
      Alcotest.(check (list string))
        (file ^ " pivot entries") protocols
        (List.map (fun e -> e.Spec.label) (Spec.pivot spec).Spec.entries);
      Alcotest.(check (list string)) (file ^ " metrics") metrics
        (metric_names spec);
      Alcotest.(check bool) (file ^ " preset seeds") true
        (spec.Spec.seeds = None && spec.Spec.base.Spec.n = None);
      Alcotest.(check bool) (file ^ " no app") true (spec.Spec.app = None))
    [
      ( "robustness.scn",
        "robustness",
        "loss_rate",
        [ "basalt"; "brahms" ],
        [ "samples_byz"; "isolated" ] );
      ( "robustness_latency.scn",
        "robustness-latency",
        "jitter",
        [ "basalt" ],
        [ "samples_byz" ] );
      ( "churn.scn",
        "churn",
        "churn_rate",
        [ "basalt"; "brahms" ],
        [ "samples_byz"; "isolated"; "replacements basalt" ] );
    ]

(* --- static expansion shape (no simulation runs) --- *)

let smoke_expansion () =
  let spec = load_ok (scenarios_dir ^ "smoke.scn") in
  let tasks = Matrix.tasks ~scale:Basalt_experiments.Scale.Quick spec in
  (* 2 conditions x 2 protocols x 2 seeds, seeds innermost. *)
  Alcotest.(check int) "task count" 8 (List.length tasks);
  let labels =
    List.map
      (fun t ->
        String.concat "/" (List.map snd t.Matrix.labels)
        ^ "#"
        ^ string_of_int t.Matrix.scenario.Basalt_sim.Scenario.seed)
      tasks
  in
  Alcotest.(check (list string)) "expansion order"
    [
      "clean/basalt#1";
      "clean/basalt#2";
      "clean/brahms#1";
      "clean/brahms#2";
      "lossy/basalt#1";
      "lossy/basalt#2";
      "lossy/brahms#1";
      "lossy/brahms#2";
    ]
    labels;
  (* Coordinates carry axis names in file order. *)
  let t0 = List.hd tasks in
  Alcotest.(check (list (pair string string)))
    "axis-name coordinates"
    [ ("condition", "clean"); ("protocol", "basalt") ]
    t0.Matrix.labels;
  (* Base bindings override the scale preset. *)
  Alcotest.(check int) "explicit n wins" 80
    t0.Matrix.scenario.Basalt_sim.Scenario.n;
  (* Trace tags come from the trace-key attributes, as strings here. *)
  Alcotest.(check bool) "trace tags" true
    (t0.Matrix.trace_extra
    = [ ("cond", Basalt_obs.Obs.Str "clean"); ("proto", Basalt_obs.Obs.Str "basalt") ])

let broadcast_expansion () =
  let spec = load_ok (scenarios_dir ^ "broadcast.scn") in
  let tasks = Matrix.tasks ~scale:Basalt_experiments.Scale.Quick spec in
  let seeds = List.length (Basalt_experiments.Scale.seeds Basalt_experiments.Scale.Quick) in
  (* 3 conditions x 2 forces x 4 protocols x preset seeds. *)
  Alcotest.(check int) "task count" (3 * 2 * 4 * seeds) (List.length tasks);
  (* The force axis is display-float: traces tag it as a float. *)
  let t0 = List.hd tasks in
  Alcotest.(check bool) "float trace tag" true
    (List.assoc "force" t0.Matrix.trace_extra = Basalt_obs.Obs.Float 1.0)

(* The per-cell scenarios resolve fault windows against the cell's own
   step count, as run fractions. *)
let fraction_windows_resolve () =
  let spec = load_ok (scenarios_dir ^ "robustness_net.scn") in
  let tasks = Matrix.tasks ~scale:Basalt_experiments.Scale.Quick spec in
  let partition_task =
    List.find
      (fun t -> List.assoc "condition" t.Matrix.labels = "partition")
      tasks
  in
  let sc = partition_task.Matrix.scenario in
  let steps = sc.Basalt_sim.Scenario.steps in
  match sc.Basalt_sim.Scenario.fault with
  | None -> Alcotest.fail "partition cell has no fault plan"
  | Some fault -> (
      match fault.Basalt_engine.Fault.partitions with
      | [ p ] ->
          Alcotest.(check (float 0.0)) "from = steps/4"
            (0.25 *. steps) p.Basalt_engine.Fault.from_time;
          Alcotest.(check (float 0.0)) "until = steps/2"
            (0.5 *. steps) p.Basalt_engine.Fault.until_time
      | ps ->
          Alcotest.failf "expected one partition, got %d" (List.length ps))

(* A zero entry binds nothing, so it keeps the Scenario.make defaults;
   churn starts at its run fraction, exactly steps/4 for 0.25. *)
let zero_entries_and_churn_start () =
  let basalt_cell file label =
    let spec = load_ok (scenarios_dir ^ file) in
    let t =
      List.find
        (fun t -> List.map snd t.Matrix.labels = [ label; "basalt" ])
        (Matrix.tasks ~scale:Basalt_experiments.Scale.Quick spec)
    in
    t.Matrix.scenario
  in
  let sc = basalt_cell "robustness.scn" "0" in
  Alcotest.(check bool) "zero loss is Loss.None" true
    (sc.Basalt_sim.Scenario.loss = Basalt_engine.Link.Loss.None);
  let sc = basalt_cell "robustness_latency.scn" "0" in
  Alcotest.(check bool) "zero jitter is Latency.Zero" true
    (sc.Basalt_sim.Scenario.latency = Basalt_engine.Link.Latency.Zero);
  let sc = basalt_cell "churn.scn" "0" in
  Alcotest.(check bool) "zero rate has no churn" true
    (sc.Basalt_sim.Scenario.churn = None);
  let sc = basalt_cell "churn.scn" "0.01" in
  match sc.Basalt_sim.Scenario.churn with
  | None -> Alcotest.fail "churn cell has no churn model"
  | Some c ->
      Alcotest.(check (float 0.0)) "start = steps/4"
        (sc.Basalt_sim.Scenario.steps /. 4.0)
        c.Basalt_sim.Churn.start;
      Alcotest.(check (float 0.0)) "rate" 0.01 c.Basalt_sim.Churn.rate

let () =
  let name, cases = sexp_suite in
  Alcotest.run "scenario"
    [
      (name, cases);
      ( "spec",
        [
          Alcotest.test_case "corpus diagnostics" `Quick corpus_diagnostics;
          Alcotest.test_case "corpus is exhaustive" `Quick corpus_is_exhaustive;
          Alcotest.test_case "missing file is unreadable" `Quick
            missing_file_is_unreadable;
          Alcotest.test_case "committed files load" `Quick committed_files_load;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "smoke expansion" `Quick smoke_expansion;
          Alcotest.test_case "broadcast expansion" `Quick broadcast_expansion;
          Alcotest.test_case "fraction windows resolve" `Quick
            fraction_windows_resolve;
          Alcotest.test_case "zero entries and churn start" `Quick
            zero_entries_and_churn_start;
        ] );
    ]
