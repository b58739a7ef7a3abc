(* Reproduction driver: one subcommand per paper figure/table.
   See DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
   paper-vs-measured outcomes. *)

open Cmdliner
open Basalt_experiments
module Pool = Basalt_parallel.Pool
module Spec = Basalt_scenario.Spec
module Matrix = Basalt_scenario.Matrix

let scale_arg =
  let parse s = Result.map_error (fun e -> `Msg e) (Scale.of_string s) in
  let print ppf s = Format.fprintf ppf "%s" (Scale.to_string s) in
  let scale_conv = Arg.conv ~docv:"SCALE" (parse, print) in
  let doc =
    "Experiment scale: $(b,quick) (seconds), $(b,standard) (minutes, n=1000) \
     or $(b,full) (paper scale, n=10000; hours for the complete suite)."
  in
  Arg.(value & opt scale_conv Scale.Standard & info [ "s"; "scale" ] ~doc)

let csv_arg =
  let doc =
    "Also write each experiment's rows as CSV files under $(docv) (created \
     if missing)."
  in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

let trace_arg =
  let doc =
    "Write a deterministic JSONL event trace (lib/obs, DESIGN.md \xc2\xa78) to \
     $(docv).  Supported by $(b,cost), $(b,timeline), $(b,matrix) and the \
     scenario-file targets ($(b,robustness-net), $(b,broadcast), \
     $(b,robustness), $(b,churn)); other targets warn and ignore the flag \
     (sweeps would record millions of events)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc =
    "Fan Monte-Carlo runs out over $(docv) domains (1 = sequential, today's \
     default; 0 = one domain per core).  Results are bit-identical at any \
     setting (DESIGN.md \xc2\xa77)."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let csv_path csv_dir name =
  Option.map
    (fun dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Filename.concat dir (name ^ ".csv"))
    csv_dir

(* Fail fast, with the failing path and a distinct exit code, before
   spending minutes on an experiment whose output cannot be written
   (exit 5; test_cli.ml pins it). *)
let exit_unwritable = 5

let fail_unwritable kind path msg =
  Printf.eprintf "repro: cannot write %s %s: %s\n%!" kind path msg;
  exit exit_unwritable

(* The append-without-truncate probe leaves pre-existing contents
   intact; a file it creates is immediately rewritten by the run. *)
let validate_trace = function
  | None -> ()
  | Some path -> (
      try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 path)
      with Sys_error msg -> fail_unwritable "trace file" path msg)

let validate_csv_dir = function
  | None -> ()
  | Some dir -> (
      try
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let probe = Filename.concat dir ".repro_probe" in
        close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 probe);
        Sys.remove probe
      with Sys_error msg -> fail_unwritable "csv directory" dir msg)

let warn_no_trace cmd_name = function
  | None -> ()
  | Some _ ->
      Printf.eprintf
        "repro %s: --trace is only supported by cost, timeline, matrix, \
         robustness-net, broadcast, robustness and churn; ignoring\n\
         %!"
        cmd_name

(* jobs = 1 avoids the pool entirely (no domains are ever spawned), so
   the default matches the pre-parallelism driver exactly. *)
let with_jobs jobs f =
  match jobs with
  | 1 -> f None
  | 0 -> Pool.with_pool (fun pool -> f (Some pool))
  | j when j > 1 -> Pool.with_pool ~domains:j (fun pool -> f (Some pool))
  | _ ->
      prerr_endline "repro: -j must be >= 0";
      exit 1

(* Streams every matrix's trace into one file, then names it. *)
let with_trace trace f =
  match trace with
  | None -> f None
  | Some path ->
      Out_channel.with_open_bin path (fun oc -> f (Some oc));
      Printf.printf "(trace written to %s)\n%!" path

let run_matrix ~scale ~csv_dir ~trace ~pool spec =
  Matrix.print ~scale ?csv:(csv_path csv_dir (Spec.slug spec)) ?trace ?pool
    spec

let timed cmd_name f scale csv_dir trace jobs =
  validate_csv_dir csv_dir;
  validate_trace trace;
  let t0 = Unix.gettimeofday () in
  with_jobs jobs (fun pool -> f ~scale ~csv_dir ~trace ~pool ());
  Printf.printf "[%s done in %.1fs]\n\n%!" cmd_name (Unix.gettimeofday () -. t0)

let cmd cmd_name ~doc f =
  Cmd.v (Cmd.info cmd_name ~doc)
    Term.(const (timed cmd_name f) $ scale_arg $ csv_arg $ trace_arg $ jobs_arg)

(* Adapter for the targets that do not support tracing: warn, drop the
   flag, and keep the original signature. *)
let untraced cmd_name f ~scale ~csv_dir ~trace ~pool () =
  warn_no_trace cmd_name trace;
  f ~scale ~csv_dir ~pool ()

let fig2_panel tag panel ~scale ~csv_dir ~pool () =
  Fig2.print ~scale ?csv:(csv_path csv_dir tag) ?pool panel

let fig2_all ~scale ~csv_dir ~pool () =
  List.iter2
    (fun tag panel -> fig2_panel tag panel ~scale ~csv_dir ~pool ())
    [ "fig2a"; "fig2b"; "fig2c"; "fig2d" ]
    Fig2.all_panels

let fig3 ~scale ~csv_dir ~pool () =
  Fig3.print ~scale ?csv:(csv_path csv_dir "fig3") ?pool ()

let fig4 ~scale ~csv_dir ~pool () =
  Fig4.print ~scale ?csv:(csv_path csv_dir "fig4") ?pool ()

let fig5 ~scale ~csv_dir ~pool () =
  Fig5.print ~scale ?csv:(csv_path csv_dir "fig5") ?pool ()

let sps_failure ~scale ~csv_dir ~pool () =
  Sps_failure.print ~scale ?csv:(csv_path csv_dir "sps_failure") ?pool ()

let live ~scale ~csv_dir ~pool:_ () =
  Live.print ~scale ?csv:(csv_path csv_dir "live") ()

let theory ~scale ~csv_dir:_ ~pool () = Theory.print ~scale ?pool ()
let params ~scale ~csv_dir:_ ~pool:_ () = Params.print ~scale ()

let cost ~scale ~csv_dir ~trace ~pool:_ () =
  Cost.print ~scale ?csv:(csv_path csv_dir "cost") ?trace ()

let sybil ~scale ~csv_dir ~pool () =
  Sybil.print ~scale ?csv:(csv_path csv_dir "sybil") ?pool ()

(* The sweep-shaped targets are committed scenario files (scenarios/,
   embedded at build time so they run from any directory), printed in
   order into one shared trace. *)
let committed files ~scale ~csv_dir ~trace ~pool () =
  let specs =
    List.map
      (fun file ->
        match
          Spec.of_string ~file:("scenarios/" ^ file)
            (List.assoc file Scenario_files.files)
        with
        | Ok spec -> spec
        | Error msg ->
            prerr_endline msg;
            exit 4)
      files
  in
  with_trace trace (fun trace ->
      List.iter (run_matrix ~scale ~csv_dir ~trace ~pool) specs)

let churn = committed [ "churn.scn" ]
let robustness = committed [ "robustness.scn"; "robustness_latency.scn" ]
let robustness_net = committed [ "robustness_net.scn" ]
let broadcast = committed [ "broadcast.scn" ]

let uniformity ~scale ~csv_dir ~pool () =
  Uniformity.print ~scale ?csv:(csv_path csv_dir "uniformity") ?pool ()

let dag ~scale ~csv_dir ~pool:_ () =
  Dag_exp.print ~scale ?csv:(csv_path csv_dir "dag") ()

let all ~scale ~csv_dir ~trace ~pool () =
  params ~scale ~csv_dir ~pool ();
  theory ~scale ~csv_dir ~pool ();
  fig2_all ~scale ~csv_dir ~pool ();
  fig3 ~scale ~csv_dir ~pool ();
  fig4 ~scale ~csv_dir ~pool ();
  fig5 ~scale ~csv_dir ~pool ();
  sps_failure ~scale ~csv_dir ~pool ();
  live ~scale ~csv_dir ~pool ();
  (* cost is the one target in the sequence that understands --trace. *)
  cost ~scale ~csv_dir ~trace ~pool ()

let extensions ~scale ~csv_dir ~pool () =
  churn ~scale ~csv_dir ~trace:None ~pool ();
  sybil ~scale ~csv_dir ~pool ();
  robustness ~scale ~csv_dir ~trace:None ~pool ();
  robustness_net ~scale ~csv_dir ~trace:None ~pool ();
  uniformity ~scale ~csv_dir ~pool ();
  dag ~scale ~csv_dir ~pool ();
  broadcast ~scale ~csv_dir ~trace:None ~pool ()

let cmds =
  [
    cmd "fig2a" ~doc:"Byzantine samples vs fraction f (Fig. 2a)"
      (untraced "fig2a" (fig2_panel "fig2a" Fig2.F_byzantine));
    cmd "fig2b" ~doc:"Byzantine samples vs attack force F (Fig. 2b)"
      (untraced "fig2b" (fig2_panel "fig2b" Fig2.Force));
    cmd "fig2c" ~doc:"Byzantine samples vs sampling rate rho (Fig. 2c)"
      (untraced "fig2c" (fig2_panel "fig2c" Fig2.Rho));
    cmd "fig2d" ~doc:"Byzantine samples vs view size v (Fig. 2d)"
      (untraced "fig2d" (fig2_panel "fig2d" Fig2.View_size));
    cmd "fig2" ~doc:"All four panels of Fig. 2" (untraced "fig2" fig2_all);
    cmd "fig3" ~doc:"Convergence time vs f (Fig. 3)" (untraced "fig3" fig3);
    cmd "fig4" ~doc:"Graph metric convergence over time (Fig. 4)"
      (untraced "fig4" fig4);
    cmd "fig5" ~doc:"Max sampling rate without isolation vs v (Fig. 5)"
      (untraced "fig5" fig5);
    cmd "sps-failure" ~doc:"SPS isolation at f=30%, F=0 (Section 4.3)"
      (untraced "sps-failure" sps_failure);
    cmd "live" ~doc:"Simulated live-deployment measurement (Section 5)"
      (untraced "live" live);
    cmd "theory" ~doc:"Section 3 bounds, equilibria and model validation"
      (untraced "theory" theory);
    cmd "params" ~doc:"Table 1 parameter envelope and stability checks"
      (untraced "params" params);
    cmd "cost" ~doc:"Communication-cost accounting (Section 4.3 budget)" cost;
    cmd "churn" ~doc:"Extension: sample quality under continuous churn" churn;
    cmd "sybil"
      ~doc:"Extension: institutional Sybil attack vs prefix-diverse ranking"
      (untraced "sybil" sybil);
    cmd "robustness"
      ~doc:"Extension: resilience to message loss and latency jitter"
      robustness;
    cmd "robustness-net"
      ~doc:
        "Extension: convergence under fault plans (burst loss, partitions, \
         duplication/reordering)"
      robustness_net;
    cmd "broadcast"
      ~doc:
        "Extension: epidemic broadcast (lib/gossip) over each sampler under \
         flooding and network faults"
      broadcast;
    cmd "uniformity" ~doc:"Extension: sample-stream diversity statistics"
      (untraced "uniformity" uniformity);
    cmd "dag" ~doc:"Extension: Avalanche DAG consensus with a double-spend"
      (untraced "dag" dag);
    cmd "all" ~doc:"Run every paper experiment in sequence" all;
    cmd "extensions"
      ~doc:
        "Run the extension experiments (churn, sybil, robustness, \
         robustness-net, uniformity, dag, broadcast)"
      (untraced "extensions" extensions);
  ]

(* timeline has its own flag set (free-form scenario parameters). *)
let timeline_cmd =
  let protocol =
    Arg.(
      value & opt string "basalt"
      & info [ "protocol" ] ~docv:"NAME" ~doc:"basalt|brahms|sps|classic")
  in
  let n = Arg.(value & opt int 1000 & info [ "n" ] ~doc:"Network size.") in
  let f =
    Arg.(value & opt float 0.1 & info [ "f" ] ~doc:"Byzantine fraction.")
  in
  let force = Arg.(value & opt float 10.0 & info [ "F" ] ~doc:"Attack force.") in
  let v = Arg.(value & opt int 100 & info [ "v" ] ~doc:"View size.") in
  let rho = Arg.(value & opt float 1.0 & info [ "rho" ] ~doc:"Sampling rate.") in
  let steps = Arg.(value & opt float 200.0 & info [ "steps" ] ~doc:"Duration.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let graph =
    Arg.(value & flag & info [ "graph-metrics" ] ~doc:"Record Fig. 4 metrics.")
  in
  let run protocol n f force v rho steps seed graph csv_dir trace =
    validate_csv_dir csv_dir;
    validate_trace trace;
    match
      Timeline.spec ~protocol ~n ~f ~force ~v ~rho ~steps ~seed
        ~graph_metrics:graph ()
    with
    | Ok s -> Timeline.print ?csv:(csv_path csv_dir "timeline") ?trace s
    | Error msg ->
        prerr_endline ("timeline: " ^ msg);
        exit 1
  in
  Cmd.v
    (Cmd.info "timeline" ~doc:"Time series for one free-form scenario")
    Term.(
      const run $ protocol $ n $ f $ force $ v $ rho $ steps $ seed $ graph
      $ csv_arg $ trace_arg)

(* matrix runs a declarative scenario file (DESIGN.md §12).  Distinct
   exit codes, pinned in test_cli.ml: 3 = unreadable scenario file,
   4 = parse/validation error (reported as file:line:col), 5 = shared
   unwritable-output failure. *)
let matrix_cmd =
  let file_arg =
    let doc = "Scenario matrix file (s-expression, DESIGN.md \xc2\xa712)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run file scale csv_dir trace jobs =
    validate_csv_dir csv_dir;
    validate_trace trace;
    match Spec.load file with
    | Error (`Unreadable msg) ->
        Printf.eprintf "repro matrix: cannot read %s: %s\n%!" file msg;
        exit 3
    | Error (`Invalid msg) ->
        Printf.eprintf "%s\n%!" msg;
        exit 4
    | Ok spec ->
        let t0 = Unix.gettimeofday () in
        with_jobs jobs (fun pool ->
            with_trace trace (fun trace ->
                run_matrix ~scale ~csv_dir ~trace ~pool spec));
        Printf.printf "[matrix done in %.1fs]\n\n%!"
          (Unix.gettimeofday () -. t0)
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:
         "Run a declarative scenario matrix from FILE (see scenarios/ for \
          committed examples)")
    Term.(const run $ file_arg $ scale_arg $ csv_arg $ trace_arg $ jobs_arg)

let () =
  let info =
    Cmd.info "basalt-repro" ~version:"1.0.0"
      ~doc:"Reproduce the evaluation of the Basalt paper (Middleware 2023)"
  in
  exit (Cmd.eval (Cmd.group info (timeline_cmd :: matrix_cmd :: cmds)))
