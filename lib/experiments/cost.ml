module Scenario = Basalt_sim.Scenario
module Runner = Basalt_sim.Runner
module Report = Basalt_sim.Report
module Obs = Basalt_obs.Obs

type row = {
  protocol : string;
  msgs_per_node_round : float;
  bytes_per_node_round : float;
  wire_bytes_per_node_round : float;
  max_datagram : int;
  fits_mtu : bool;
  adversary_bytes_ratio : float;
  obs : Obs.t;
}

let run ?(scale = Scale.Standard) ?(trace = false) () =
  let n = Scale.n scale in
  let v = Scale.v scale in
  let steps = Scale.steps scale in
  let protocols =
    [
      ("basalt", Scenario.Basalt (Basalt_core.Config.make ~v ()));
      ("brahms", Scenario.Brahms (Basalt_brahms.Brahms_config.make ~l:v ()));
      ("sps", Scenario.Sps (Basalt_sps.Sps.config ~l:v ()));
      ("classic", Scenario.Classic (Basalt_sps.Classic.config ~l:v ()));
    ]
  in
  List.map
    (fun (name, protocol) ->
      let scenario =
        Scenario.make ~name:"cost" ~n ~f:0.1 ~force:10.0 ~protocol ~steps ()
      in
      let r = Runner.run ~obs:true ~trace scenario in
      let sink = match r.Runner.obs with Some o -> o | None -> assert false in
      let q = float_of_int (Scenario.num_correct scenario) in
      let rounds = steps /. Scenario.tau scenario in
      let b = r.Runner.bandwidth in
      let per_round x = x /. (q *. rounds) in
      (* Message and wire-byte counts come from the protocol's own
         instruments: every correct-node send passes through
         Basalt_codec.Metered.send, so <proto>.msgs_sent equals the
         transport meter's correct_messages while <proto>.bytes_sent
         costs each datagram with the real codec (8-byte identifiers +
         header) instead of the §4.3 4-byte-id model. *)
      let instrument suffix =
        Obs.Counter.value (Obs.counter sink (name ^ "." ^ suffix))
      in
      {
        protocol = name;
        msgs_per_node_round = per_round (float_of_int (instrument "msgs_sent"));
        bytes_per_node_round =
          per_round (float_of_int b.Runner.correct_bytes);
        wire_bytes_per_node_round =
          per_round (float_of_int (instrument "bytes_sent"));
        max_datagram = b.Runner.max_datagram;
        fits_mtu = b.Runner.max_datagram <= 1500;
        adversary_bytes_ratio =
          (if b.Runner.correct_bytes = 0 then Float.nan
           else
             float_of_int b.Runner.adversary_bytes
             /. float_of_int b.Runner.correct_bytes);
        obs = sink;
      })
    protocols

let columns rows =
  let arr = Array.of_list rows in
  ( Array.length arr,
    [
      { Report.header = "protocol"; cell = (fun i -> arr.(i).protocol) };
      {
        Report.header = "msgs/node/round";
        cell = (fun i -> Report.float_cell arr.(i).msgs_per_node_round);
      };
      {
        Report.header = "bytes/node/round";
        cell = (fun i -> Report.float_cell arr.(i).bytes_per_node_round);
      };
      {
        Report.header = "wire_bytes/node/round";
        cell = (fun i -> Report.float_cell arr.(i).wire_bytes_per_node_round);
      };
      {
        Report.header = "max_datagram";
        cell = (fun i -> string_of_int arr.(i).max_datagram);
      };
      {
        Report.header = "fits_MTU";
        cell = (fun i -> string_of_bool arr.(i).fits_mtu);
      };
      {
        Report.header = "adv/correct bytes";
        cell = (fun i -> Report.float_cell arr.(i).adversary_bytes_ratio);
      };
    ] )

let write_trace path rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun row ->
          Obs.output_jsonl ~extra:[ ("proto", Obs.Str row.protocol) ] oc
            row.obs)
        rows)

let print ?(scale = Scale.Standard) ?csv ?trace () =
  Printf.printf "== communication cost (n=%d, v=%d, f=0.1, F=10)\n"
    (Scale.n scale) (Scale.v scale);
  let rows = run ~scale ~trace:(Option.is_some trace) () in
  let nrows, cols = columns rows in
  Output.emit ?csv ~rows:nrows cols;
  match trace with
  | None -> ()
  | Some path ->
      write_trace path rows;
      Printf.printf "(trace written to %s)\n" path
