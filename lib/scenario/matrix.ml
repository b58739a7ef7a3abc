(* The generic matrix driver (DESIGN.md §12): expands a validated Spec
   into the cross product of its axes, resolves every cell against the
   scale presets into a Basalt_sim.Scenario, fans the flat cell × seed
   task list over an optional Pool (order-preserving, so tables and
   traces are bit-identical at any -j N), and renders the pivot axis as
   metric columns.  Aggregation goes through Basalt_experiments.Agg and
   the gossip workload through Basalt_experiments.Gossip_app.  The
   sweep-shaped `repro` targets (robustness-net, broadcast, robustness,
   churn) are committed scenario files run through here. *)

module Scenario = Basalt_sim.Scenario
module Runner = Basalt_sim.Runner
module Measurements = Basalt_sim.Measurements
module Report = Basalt_sim.Report
module Churn = Basalt_sim.Churn
module Fault = Basalt_engine.Fault
module Engine = Basalt_engine.Engine
module Pool = Basalt_parallel.Pool
module Obs = Basalt_obs.Obs
module Scale = Basalt_experiments.Scale
module Agg = Basalt_experiments.Agg
module Gossip_app = Basalt_experiments.Gossip_app
module Output = Basalt_experiments.Output

type run = { result : Runner.result; gossip : Gossip_app.summary option }

type task = {
  labels : (string * string) list;
  trace_extra : (string * Obs.value) list;
  scenario : Scenario.t;
}

(* ------------------------------------------------------------------ *)
(* Resolution: merged settings -> Scenario.t                           *)

let protocol_of ~v = function
  | Spec.Basalt -> Scenario.Basalt (Basalt_core.Config.make ~v ())
  | Spec.Brahms -> Scenario.Brahms (Basalt_brahms.Brahms_config.make ~l:v ())
  | Spec.Sps -> Scenario.Sps (Basalt_sps.Sps.config ~l:v ())
  | Spec.Classic -> Scenario.Classic (Basalt_sps.Classic.config ~l:v ())

let link_of (l : Spec.link_fault) =
  Fault.link ?loss:l.lf_loss ?latency:l.lf_latency ?dup:l.lf_dup
    ?reorder:l.lf_reorder ?reorder_window:l.lf_reorder_window ()

(* Window and churn-start fractions scale with the run; power-of-two
   fractions such as 1/4 resolve to exactly [steps /. 4.0]. *)
let fault_of ~n ~steps (forms : Spec.fault_form list) =
  let base = ref None and partitions = ref [] and outages = ref [] in
  List.iter
    (fun form ->
      match (form : Spec.fault_form) with
      | Spec.Link_fault l -> base := Some (link_of l)
      | Spec.Partition_fault { from_frac; until_frac; side } ->
          let side =
            match side with
            | Spec.First_half -> fun i -> i < n / 2
            | Spec.First k -> fun i -> i < k
          in
          partitions :=
            Fault.partition ~from_time:(from_frac *. steps)
              ~until_time:(until_frac *. steps) side
            :: !partitions
      | Spec.Outage_fault { node; from_frac; until_frac } ->
          outages :=
            Fault.outage ~node ~from_time:(from_frac *. steps)
              ~until_time:(until_frac *. steps)
            :: !outages)
    forms;
  Fault.make ?base:!base ~partitions:(List.rev !partitions)
    ~outages:(List.rev !outages) ()

let scenario_of (spec : Spec.t) scale (s : Spec.settings) ~seed =
  let n = Option.value s.Spec.n ~default:(Scale.n scale) in
  let v = Option.value s.Spec.v ~default:(Scale.v scale) in
  let steps = Option.value s.Spec.steps ~default:(Scale.steps scale) in
  let protocol =
    match s.Spec.protocol with
    | Some p -> protocol_of ~v p
    | None -> invalid_arg "Matrix: unbound protocol (Spec.load admits none)"
  in
  let fault = Option.map (fault_of ~n ~steps) s.Spec.faults in
  let churn =
    Option.map
      (fun (c : Spec.churn) ->
        Churn.make
          ?start:(Option.map (fun frac -> frac *. steps) c.churn_start_frac)
          ?style:c.churn_style ~rate:c.churn_rate ())
      s.Spec.churn
  in
  Scenario.make ~name:spec.Spec.name ~n ?f:s.Spec.f ?force:s.Spec.force
    ?strategy:s.Spec.strategy ~protocol ~steps
    ?measure_every:s.Spec.measure_every ?sample_window:s.Spec.sample_window
    ?churn ?latency:s.Spec.latency ?loss:s.Spec.loss ?fault ~seed ()

(* ------------------------------------------------------------------ *)
(* Expansion                                                           *)

(* Cross product in file order, rightmost (pivot) axis innermost. *)
let cells (spec : Spec.t) =
  let rec go axes labels settings =
    match axes with
    | [] -> [ (List.rev labels, settings) ]
    | (ax : Spec.axis) :: rest ->
        List.concat_map
          (fun (e : Spec.entry) ->
            go rest
              ((ax.Spec.axis_name, e.Spec.label) :: labels)
              (Spec.merge settings e.Spec.bindings))
          ax.Spec.entries
  in
  go spec.Spec.axes [] spec.Spec.base

let trace_extra_of (spec : Spec.t) labels =
  List.filter_map
    (fun (ax : Spec.axis) ->
      Option.map
        (fun key ->
          let label = List.assoc ax.Spec.axis_name labels in
          let value =
            if ax.Spec.display_float then Obs.Float (float_of_string label)
            else Obs.Str label
          in
          (key, value))
        ax.Spec.trace_key)
    spec.Spec.axes

let seeds_of (spec : Spec.t) scale =
  Option.value spec.Spec.seeds ~default:(Scale.seeds scale)

let tasks ?(scale = Scale.Standard) (spec : Spec.t) =
  let seeds = seeds_of spec scale in
  List.concat_map
    (fun (labels, settings) ->
      let trace_extra = trace_extra_of spec labels in
      List.map
        (fun seed ->
          { labels; trace_extra; scenario = scenario_of spec scale settings ~seed })
        seeds)
    (cells spec)

(* ------------------------------------------------------------------ *)
(* Running                                                             *)

let run_one (spec : Spec.t) ~trace t =
  match spec.Spec.app with
  | Some params ->
      let result, summary = Gossip_app.run ~params ~trace t.scenario in
      { result; gossip = Some summary }
  | None -> { result = Runner.run ~obs:trace ~trace t.scenario; gossip = None }

(* Consecutive groups of at most [k], in order. *)
let rec batches k xs =
  let rec take i acc = function
    | x :: rest when i > 0 -> take (i - 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  match take k [] xs with [], _ -> [] | batch, rest -> batch :: batches k rest

(* With a trace, tasks run one pool-width batch at a time, and each
   batch's events are streamed out in task order before the next batch
   starts; the kept runs drop their event logs.  A whole sweep's logs
   would not fit in memory (gigabytes for broadcast at quick scale). *)
let run_tasks ?(scale = Scale.Standard) ?trace ?pool (spec : Spec.t) =
  let ts = tasks ~scale spec in
  match trace with
  | None -> (ts, Pool.map ?pool (run_one spec ~trace:false) ts)
  | Some oc ->
      let width = match pool with Some p -> Pool.domain_count p | None -> 1 in
      let stream t r =
        match r.result.Runner.obs with
        | Some sink ->
            Obs.output_jsonl ~extra:t.trace_extra oc sink;
            { r with result = { r.result with Runner.obs = None } }
        | None -> r
      in
      let run_batch batch =
        List.map2 stream batch (Pool.map ?pool (run_one spec ~trace:true) batch)
      in
      (ts, List.concat_map run_batch (batches width ts))

(* ------------------------------------------------------------------ *)
(* Rows and metric columns                                             *)

type group = { g_scenario : Scenario.t; g_runs : run list }

type row = { row_labels : (string * string) list; groups : (string * group) list }

let split_last xs =
  match List.rev xs with
  | last :: rev_init -> (List.rev rev_init, last)
  | [] -> invalid_arg "Matrix.split_last: empty list"

let rows_of ?(scale = Scale.Standard) (spec : Spec.t) ts runs =
  let per_seed = List.length (seeds_of spec scale) in
  let pivot_n = List.length (Spec.pivot spec).Spec.entries in
  let paired = List.combine ts runs in
  Agg.chunks per_seed paired
  |> List.map (fun pairs ->
         let t = fst (List.hd pairs) in
         (t.labels, { g_scenario = t.scenario; g_runs = List.map snd pairs }))
  |> Agg.chunks pivot_n
  |> List.map (fun cell_groups ->
         let row_labels, _ = split_last (fst (List.hd cell_groups)) in
         let groups =
           List.map
             (fun (labels, g) ->
               let _, (_, pivot_label) = split_last labels in
               (pivot_label, g))
             cell_groups
         in
         { row_labels; groups })

let gossip_summary r =
  match r.gossip with
  | Some s -> s
  | None -> invalid_arg "Matrix: gossip metric without (app ...)"

let eval_metric (spec : Spec.t) metric (g : group) =
  let runs = g.g_runs in
  match (metric : Spec.metric) with
  | Spec.Time -> (
      let optimal = g.g_scenario.Scenario.f in
      match
        Agg.median_opt
          (List.map
             (fun r ->
               Measurements.convergence_time ~optimal ~within:spec.Spec.within
                 r.result.Runner.series)
             runs)
      with
      | Some t -> Report.float_cell t
      | None -> "no-convergence")
  | Spec.Samples_byz ->
      Report.float_cell
        (Agg.mean
           (fun r -> r.result.Runner.final.Measurements.sample_byz)
           runs)
  | Spec.Isolated ->
      Report.float_cell
        (Agg.mean (fun r -> r.result.Runner.final.Measurements.isolated) runs)
  | Spec.Replacements ->
      string_of_int (Agg.sum (fun r -> r.result.Runner.nodes_churned) runs)
  | Spec.Delivered_sent ->
      let sent =
        Agg.sum (fun r -> r.result.Runner.transport.Engine.sent) runs
      in
      let delivered =
        Agg.sum (fun r -> r.result.Runner.transport.Engine.delivered) runs
      in
      Report.float_cell (float_of_int delivered /. float_of_int (max 1 sent))
  | Spec.Delivered ->
      Report.float_cell
        (Agg.mean (fun r -> (gossip_summary r).Gossip_app.delivered) runs)
  | Spec.T99 -> (
      match
        Agg.median_opt
          (List.map (fun r -> (gossip_summary r).Gossip_app.t99) runs)
      with
      | Some t -> Report.float_cell t
      | None -> "never")
  | Spec.Redundancy ->
      let dups =
        Agg.sum (fun r -> (gossip_summary r).Gossip_app.duplicates) runs
      in
      let dels =
        Agg.sum (fun r -> (gossip_summary r).Gossip_app.deliveries) runs
      in
      Report.float_cell (float_of_int dups /. float_of_int (max 1 dels))

let columns (spec : Spec.t) rows =
  let arr = Array.of_list rows in
  let non_pivot, pivot_axis = split_last spec.Spec.axes in
  let axis_cols =
    List.map
      (fun (ax : Spec.axis) ->
        {
          Report.header = ax.Spec.axis_name;
          cell =
            (fun i ->
              let label = List.assoc ax.Spec.axis_name arr.(i).row_labels in
              if ax.Spec.display_float then
                Report.float_cell (float_of_string label)
              else label);
        })
      non_pivot
  in
  let all_pivot_labels =
    List.map (fun e -> e.Spec.label) pivot_axis.Spec.entries
  in
  let metric_cols =
    List.concat_map
      (fun (metric, labels) ->
        let labels = match labels with [] -> all_pivot_labels | ls -> ls in
        List.map
          (fun label ->
            {
              Report.header =
                Printf.sprintf "%s_%s" label (Spec.metric_name metric);
              cell =
                (fun i ->
                  eval_metric spec metric (List.assoc label arr.(i).groups));
            })
          labels)
      spec.Spec.metrics
  in
  (Array.length arr, axis_cols @ metric_cols)

let run ?(scale = Scale.Standard) ?pool (spec : Spec.t) =
  let ts, runs = run_tasks ~scale ?pool spec in
  rows_of ~scale spec ts runs

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let print ?(scale = Scale.Standard) ?csv ?trace ?pool (spec : Spec.t) =
  let cell_count = List.length (cells spec) in
  let seed_count = List.length (seeds_of spec scale) in
  Output.line
    (Printf.sprintf "== matrix %s: %d cells x %d seed%s (scale %s)"
       spec.Spec.name cell_count seed_count
       (if seed_count = 1 then "" else "s")
       (Scale.to_string scale));
  let ts, runs = run_tasks ~scale ?trace ?pool spec in
  let rows, cols = columns spec (rows_of ~scale spec ts runs) in
  Output.emit ?csv ~rows cols
