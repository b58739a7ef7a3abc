module Scenario = Basalt_sim.Scenario
module Runner = Basalt_sim.Runner
module Report = Basalt_sim.Report

type spec = {
  protocol : string;
  n : int;
  f : float;
  force : float;
  v : int;
  rho : float;
  steps : float;
  seed : int;
  graph_metrics : bool;
}

let known_protocols = [ "basalt"; "brahms"; "sps"; "classic" ]

let spec ?(protocol = "basalt") ?(n = 1000) ?(f = 0.1) ?(force = 10.0)
    ?(v = 100) ?(rho = 1.0) ?(steps = 200.0) ?(seed = 42)
    ?(graph_metrics = false) () =
  if not (List.mem protocol known_protocols) then
    Error
      (Printf.sprintf "unknown protocol %S (expected %s)" protocol
         (String.concat "|" known_protocols))
  else Ok { protocol; n; f; force; v; rho; steps; seed; graph_metrics }

let protocol_of s =
  match s.protocol with
  | "basalt" -> Scenario.Basalt (Basalt_core.Config.make ~v:s.v ~rho:s.rho ())
  | "brahms" ->
      Scenario.Brahms (Basalt_brahms.Brahms_config.make ~l:s.v ~rho:s.rho ())
  | "sps" -> Scenario.Sps (Basalt_sps.Sps.config ~l:s.v ())
  | "classic" -> Scenario.Classic (Basalt_sps.Classic.config ~l:s.v ())
  | p -> invalid_arg ("Timeline: unknown protocol " ^ p)

let run ?obs ?trace s =
  Runner.run ?obs ?trace
    (Scenario.make ~name:"timeline" ~n:s.n ~f:s.f ~force:s.force
       ~protocol:(protocol_of s) ~steps:s.steps ~seed:s.seed
       ~graph_metrics:s.graph_metrics ())

let print ?csv ?trace s =
  Printf.printf
    "== timeline: %s  n=%d f=%g F=%g v=%d rho=%g steps=%g seed=%d\n" s.protocol
    s.n s.f s.force s.v s.rho s.steps s.seed;
  (* Metrics columns ride along whenever a trace was asked for: the same
     sink feeds both, and the table is where the instruments surface. *)
  let with_obs = Option.is_some trace in
  let r = run ~obs:with_obs ~trace:with_obs s in
  let cols = Report.series_columns r.Runner.series in
  let rows = Basalt_sim.Measurements.length r.Runner.series in
  Output.emit ?csv ~rows cols;
  let series field =
    Array.of_list
      (List.map field (Basalt_sim.Measurements.points r.Runner.series))
  in
  Printf.printf "view_byz   %s\n"
    (Report.sparkline (series (fun p -> p.Basalt_sim.Measurements.view_byz)));
  Printf.printf "sample_byz %s\n"
    (Report.sparkline (series (fun p -> p.Basalt_sim.Measurements.sample_byz)));
  Printf.printf "isolated   %s\n"
    (Report.sparkline (series (fun p -> p.Basalt_sim.Measurements.isolated)));
  let b = r.Runner.bandwidth in
  Printf.printf
    "final: view_byz=%.4f sample_byz=%.4f isolated=%.4f; %d correct msgs \
     (%d bytes), max datagram %d B\n"
    r.Runner.final.Basalt_sim.Measurements.view_byz
    r.Runner.final.Basalt_sim.Measurements.sample_byz
    r.Runner.final.Basalt_sim.Measurements.isolated b.Runner.correct_messages
    b.Runner.correct_bytes b.Runner.max_datagram;
  match (trace, r.Runner.obs) with
  | Some path, Some sink ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Basalt_obs.Obs.output_jsonl oc sink);
      Printf.printf "(trace written to %s)\n" path
  | _ -> ()
