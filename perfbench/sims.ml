(* The two simulated workloads and the traced rebuild of their wiring.

   Untraced passes call [Runner.run] itself.  Every pass installs an
   application hook, so the benchmark can time the set-up: the hook
   schedules a marker at virtual time 0, the first event any run
   executes, and the marker stamps the host clock and the allocation
   counter and starts the run's {!Host} clock.  Installing an app splits
   one extra PRNG stream from the run's master after every stream the
   runner draws from, so the simulated outputs are those of a plain run
   (plus the one marker event).

   Traced passes rebuild the runner's wiring from the public
   constructors ([Engine.create], [Scenario.maker], [Adversary.create],
   [Gossip.create], [Graph.Metrics]) with the runner's PRNG split order,
   bootstrap draw and timer layout, and wrap each call into a layer in a
   {!Tracer} span.  [traced_pair] in [main.ml] compares the two. *)

module Scenario = Basalt_sim.Scenario
module Runner = Basalt_sim.Runner
module Measurements = Basalt_sim.Measurements
module Engine = Basalt_engine.Engine
module Fault = Basalt_engine.Fault
module Link = Basalt_engine.Link
module Rng = Basalt_prng.Rng
module Node_id = Basalt_proto.Node_id
module Message = Basalt_proto.Message
module Rps = Basalt_proto.Rps
module View_ops = Basalt_proto.View_ops
module Adversary = Basalt_adversary.Adversary
module Sample_stream = Basalt_core.Sample_stream
module Gossip = Basalt_gossip.Gossip
module Delivery = Basalt_gossip.Delivery
module Digraph = Basalt_graph.Digraph
module Metrics = Basalt_graph.Metrics
module Isolation = Basalt_graph.Isolation
module Online = Basalt_analysis.Stats.Online
module T = Tracer

(* --- Workload parameters --- *)

(* [flood]: the paper's Table-1 point (n = 1000, f = 0.1, F = 10) with
   v = l = 100.  Fifteen exchange rounds are enough for the three
   protocols' sample-Byzantine fractions to separate (Basalt < Brahms <
   SPS on every seed tried) while one pass of all three stays near four
   host seconds. *)
let flood_steps = 15.0

let flood_protocols =
  [
    ("basalt", Scenario.Basalt (Basalt_core.Config.make ~v:100 ()));
    ("brahms", Scenario.Brahms (Basalt_brahms.Brahms_config.make ~l:100 ()));
    ("sps", Scenario.Sps (Basalt_sps.Sps.config ~l:100 ()));
  ]

let flood_scenario ~seed (name, protocol) =
  Scenario.make ~name:("flood-" ^ name) ~n:1000 ~f:0.1 ~force:10.0 ~protocol
    ~steps:flood_steps ~seed ()

(* [broadcast-faults]: Basalt with a small view carrying a continuous
   publish stream (one publish per time unit after a 20% warm-up) over
   duplicating, reordering links with uniform latency, with the
   expensive graph metrics taken at every measurement. *)
let broadcast_steps = 150.0
let broadcast_publishes = 100
let broadcast_payload = 256
let broadcast_warmup = 0.2

let broadcast_name = "broadcast-faults"

let broadcast_scenario ~seed =
  Scenario.make ~name:broadcast_name ~n:200 ~f:0.1 ~force:10.0
    ~protocol:(Scenario.Basalt (Basalt_core.Config.make ~v:16 ()))
    ~steps:broadcast_steps ~seed
    ~latency:(Link.Latency.Uniform { lo = 0.05; hi = 0.2 })
    ~fault:(Fault.make ~base:(Fault.link ~dup:0.2 ~reorder:0.3 ()) ())
    ~graph_metrics:true ()

(* --- Results --- *)

type gossip_out = {
  delivered_frac : float;  (** (message, correct node) deliveries. *)
  duplicates : int;  (** Redundant data frames, run-wide. *)
  deliveries : int;  (** Deliveries, local publishes included. *)
  published : int;
}

type pass = {
  label : string;
  stats : Engine.stats;
  setup_s : float;  (** From the call to the first event. *)
  run_s : float;
      (** From the first event to the end of the run, less the
          calibration kernel's time. *)
  ref_s : float;  (** [run_s] scaled to the reference host ({!Host}). *)
  words : float;  (** Words allocated from the first event on. *)
  view_byz : float;  (** Final mean Byzantine fraction in views. *)
  sample_byz : float;  (** Final mean Byzantine fraction in samples. *)
  gossip : gossip_out option;
}

let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* --- The first-event marker --- *)

exception Setup_done

type mark = {
  abort : bool;
  mutable at_ns : int;
  mutable at_words : float;
  mutable clock : Host.clock option;
}

let new_mark ~abort = { abort; at_ns = 0; at_words = 0.0; clock = None }

(* Close a measurement interval of the run's host clock. *)
let lap m = match m.clock with Some c -> ignore (Host.lap c) | None -> ()

let mark_first_event m ctx =
  ctx.Runner.app_schedule ~delay:0.0 (fun () ->
      if m.abort then raise Setup_done;
      m.at_ns <- T.now_ns ();
      m.at_words <- allocated_words ();
      m.clock <- Some (Host.start ()))

(* --- Applications --- *)

let inert =
  {
    Runner.app_deliver = (fun ~from:_ _ -> false);
    app_tick = (fun _ -> ());
    app_round = (fun () -> ());
  }

let flood_app m : Runner.app =
 fun ctx ->
  mark_first_event m ctx;
  fun _ -> inert

(* How a gossip node is mounted on the runner's hooks; the traced run
   swaps in wrapped calls. *)
type gossip_hooks = {
  mount : Gossip.t -> Runner.app_node;
  publish : Gossip.t -> bytes -> Message.mid;
}

let plain_hooks =
  {
    mount =
      (fun g ->
        {
          Runner.app_deliver = (fun ~from msg -> Gossip.on_message g ~from msg);
          app_tick = (fun ps -> Gossip.on_samples g ps);
          app_round = (fun () -> Gossip.heartbeat g);
        });
    publish = Gossip.publish;
  }

type gossip_state = { tracker : Delivery.t; gossips : Gossip.t option array }

(* The broadcast application exactly as [Gossip_app.run] mounts it: the
   same publish plan (rotating publishers, one publish per time unit
   after the warm-up), the same per-node PRNG splits and the same
   delivery accounting. *)
let gossip_app hooks m st : Runner.app =
 fun ctx ->
  mark_first_event m ctx;
  let q = ctx.Runner.app_q in
  for k = 0 to broadcast_publishes - 1 do
    let time = (broadcast_warmup *. broadcast_steps) +. float_of_int k in
    let p = 17 * (k + 1) mod q in
    let payload = Bytes.make broadcast_payload (Char.chr (65 + (k mod 26))) in
    ctx.Runner.app_schedule ~delay:time (fun () ->
        if ctx.Runner.app_alive p then
          match st.gossips.(p) with
          | Some g ->
              let mid = hooks.publish g payload in
              Delivery.published st.tracker mid ~time:(ctx.Runner.app_now ())
          | None -> ())
  done;
  fun i ->
    let rng = Rng.split ctx.Runner.app_rng in
    let g =
      Gossip.create ~obs:ctx.Runner.app_obs ~node:(Node_id.of_int i)
        ~view:(fun () -> ctx.Runner.app_view i)
        ~rng
        ~send:(fun ~dst msg -> ctx.Runner.app_send ~src:i ~dst msg)
        ~deliver:(fun mid _ ->
          Delivery.delivered st.tracker mid ~node:i ~time:(ctx.Runner.app_now ()))
        ()
    in
    st.gossips.(i) <- Some g;
    hooks.mount g

let new_gossip_state s =
  let q = Scenario.num_correct s in
  { tracker = Delivery.create ~n:q (); gossips = Array.make q None }

let gossip_out st =
  let dups = ref 0 and dels = ref 0 and pubs = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some g ->
          let x = Gossip.stats g in
          dups := !dups + x.Gossip.duplicates;
          dels := !dels + x.Gossip.delivered;
          pubs := !pubs + x.Gossip.published)
    st.gossips;
  {
    delivered_frac = Delivery.fraction st.tracker;
    duplicates = !dups;
    deliveries = !dels;
    published = !pubs;
  }

(* --- Untraced passes --- *)

type kind = Flood | Broadcast

let kind_of_scenario s =
  if s.Scenario.name = broadcast_name then Broadcast else Flood

let finish_pass ~label ~t0 m ~stats ~view_byz ~sample_byz ~gossip =
  let c = Option.get m.clock in
  ignore (Host.lap c);
  let w1 = allocated_words () in
  {
    label;
    stats;
    setup_s = float_of_int (m.at_ns - t0) /. 1e9;
    run_s = c.Host.raw_ns /. 1e9;
    ref_s = c.Host.ref_ns /. 1e9;
    words = w1 -. m.at_words -. c.Host.words;
    view_byz;
    sample_byz;
    gossip;
  }

(* [run ~obs s] is one [Runner.run] of [s] with the marker installed;
   the runner's measurement observer, which neither draws randomness nor
   schedules events, closes a host-clock interval once per simulated
   time unit. *)
let run ?(obs = false) s =
  (* Start every timed run from the same heap state, so neither the
     clock nor the peak heap depends on what ran before. *)
  Gc.full_major ();
  let m = new_mark ~abort:false in
  let observer ~time:_ ~views:_ = lap m in
  let t0 = T.now_ns () in
  let finish ~label ?gossip r =
    finish_pass ~label ~t0 m ~stats:r.Runner.transport
      ~view_byz:r.Runner.final.Measurements.view_byz
      ~sample_byz:r.Runner.final.Measurements.sample_byz ~gossip
  in
  match kind_of_scenario s with
  | Flood ->
      finish ~label:(Scenario.protocol_name s)
        (Runner.run_with_observer ~observer ~app:(flood_app m) ~obs s)
  | Broadcast ->
      let st = new_gossip_state s in
      let r = Runner.run_with_observer ~observer ~app:(gossip_app plain_hooks m st) ~obs s in
      finish ~label:"broadcast" ~gossip:(gossip_out st) r

(* [setup s] runs [Runner.run s] up to its first event: scenario,
   engine, node and adversary construction. *)
let setup s =
  let m = new_mark ~abort:true in
  let app =
    match kind_of_scenario s with
    | Flood -> flood_app m
    | Broadcast -> gossip_app plain_hooks m (new_gossip_state s)
  in
  try ignore (Runner.run ~app s) with Setup_done -> ()

(* --- Traced passes --- *)

(* Gossip data frames received by traced nodes, for the useful ratio. *)
let data_frames = ref 0

let traced_hooks =
  let on_message = T.op "gossip.on_message" in
  let heartbeat = T.op "gossip.heartbeat" in
  let on_samples = T.op "gossip.on_samples" in
  let publish = T.op "gossip.publish" in
  {
    mount =
      (fun g ->
        {
          Runner.app_deliver =
            (fun ~from msg ->
              (match msg with Message.Gossip _ -> incr data_frames | _ -> ());
              T.wrap on_message (fun () -> Gossip.on_message g ~from msg));
          app_tick = (fun ps -> T.wrap on_samples (fun () -> Gossip.on_samples g ps));
          app_round = (fun () -> T.wrap heartbeat (fun () -> Gossip.heartbeat g));
        });
    publish = (fun g payload -> T.wrap publish (fun () -> Gossip.publish g payload));
  }

(* The runner's bootstrap draw, verbatim: [size] peers with Byzantine
   fraction [f0], excluding [self]. *)
let bootstrap_sample s rng ~self =
  let q = Scenario.num_correct s in
  let num_byz = Scenario.num_byzantine s in
  let size = s.Scenario.bootstrap_size in
  let byz_count =
    min num_byz
      (int_of_float (Float.round (s.Scenario.bootstrap_f0 *. float_of_int size)))
  in
  let correct_count = min (q - 1) (size - byz_count) in
  let out = ref [] in
  let seen = Hashtbl.create size in
  let draw bound offset count =
    let drawn = ref 0 in
    let attempts = ref 0 in
    while !drawn < count && !attempts < 100 * count do
      incr attempts;
      let candidate = offset + Rng.int rng bound in
      if candidate <> self && not (Hashtbl.mem seen candidate) then begin
        Hashtbl.add seen candidate ();
        out := Node_id.of_int candidate :: !out;
        incr drawn
      end
    done
  in
  if q > 1 then draw q 0 correct_count;
  if num_byz > 0 then draw num_byz q byz_count;
  Array.of_list !out

let protocol_layer s =
  match s.Scenario.protocol with
  | Scenario.Basalt _ -> "basalt_core"
  | Scenario.Brahms _ -> "brahms"
  | Scenario.Sps _ -> "sps"
  | Scenario.Classic _ -> "classic"

(* [traced s] rebuilds [Runner.run ~app s] call for call, with every call
   into a layer wrapped in a span. *)
let traced s =
  assert (s.Scenario.churn = None);
  let layer = protocol_layer s in
  let o_send = T.op "engine.send" in
  let o_pull = T.op (layer ^ ".pull") in
  let o_pull_reply = T.op (layer ^ ".pull_reply") in
  let o_push = T.op (layer ^ ".push") in
  let o_push_id = T.op (layer ^ ".push_id") in
  let o_other = T.op (layer ^ ".other") in
  let o_round = T.op (layer ^ ".on_round") in
  let o_tick = T.op (layer ^ ".sample_tick") in
  let o_adv_msg = T.op "adversary.on_message" in
  let o_adv_round = T.op "adversary.on_round" in
  let o_sim_tick = T.op "sim.tick" in
  let o_measure = T.op "sim.measure" in
  let o_of_views = T.op "graph.of_views" in
  let o_clustering = T.op "graph.clustering" in
  let o_mean_path = T.op "graph.mean_path" in
  let o_indegree = T.op "graph.indegree" in
  let handler_op = function
    | Message.Pull_request -> o_pull
    | Message.Pull_reply _ -> o_pull_reply
    | Message.Push _ -> o_push
    | Message.Push_id _ -> o_push_id
    | _ -> o_other
  in
  Gc.full_major ();
  let m = new_mark ~abort:false in
  let kind = kind_of_scenario s in
  let gst = new_gossip_state s in
  let app =
    match kind with
    | Flood -> flood_app m
    | Broadcast -> gossip_app traced_hooks m gst
  in
  let t0 = T.now_ns () in
  (* Split order of [Runner.run_with_observer]. *)
  let master = Rng.create ~seed:s.Scenario.seed in
  let engine_rng = Rng.split master in
  let node_rng = Rng.split master in
  let adversary_rng = Rng.split master in
  let bootstrap_rng = Rng.split master in
  let metric_rng = Rng.split master in
  let app_rng = Rng.split master in
  let n = s.Scenario.n in
  let q = Scenario.num_correct s in
  let num_byz = Scenario.num_byzantine s in
  let engine : Message.t Engine.t =
    Engine.create ~latency:s.Scenario.latency ~loss:s.Scenario.loss
      ?fault:s.Scenario.fault ~kind_of:Message.kind ~rng:engine_rng ~n ()
  in
  let malicious_pred id = Node_id.to_int id >= q in
  (* The runner meters every send for its bandwidth totals; the rebuild
     does the same work so the traced run costs what the real one does. *)
  let correct_bytes = ref 0 and adversary_bytes = ref 0 and max_datagram = ref 0 in
  let meter counter msg =
    let size = Message.bytes_on_wire msg in
    if size > !max_datagram then max_datagram := size;
    counter := !counter + size
  in
  let esend ~src ~dst msg =
    T.wrap o_send (fun () -> Engine.send engine ~src ~dst msg)
  in
  let maker = Scenario.maker s in
  let samplers = Array.make q (Rps.null (Node_id.of_int 0)) in
  let streams =
    Array.init q (fun _ -> Sample_stream.create ~capacity:s.Scenario.sample_window)
  in
  (* Kept, like the meter, only so the rebuild does the runner's work. *)
  let sample_histogram = Array.make n 0 in
  let apps = Array.make q inert in
  let ctx =
    {
      Runner.app_q = q;
      app_n = n;
      app_rng;
      app_obs = Basalt_obs.Obs.disabled;
      app_now = (fun () -> Engine.now engine);
      app_send =
        (fun ~src ~dst msg ->
          meter correct_bytes msg;
          esend ~src ~dst:(Node_id.to_int dst) msg);
      app_schedule = (fun ~delay k -> Engine.schedule engine ~delay k);
      app_alive = (fun i -> i >= 0 && i < q);
      app_view =
        (fun i -> if i >= 0 && i < q then samplers.(i).Rps.current_view () else [||]);
    }
  in
  let app_make = app ctx in
  for i = 0 to q - 1 do
    let send ~dst msg =
      meter correct_bytes msg;
      esend ~src:i ~dst:(Node_id.to_int dst) msg
    in
    let bootstrap = bootstrap_sample s bootstrap_rng ~self:i in
    samplers.(i) <- maker ~id:(Node_id.of_int i) ~bootstrap ~rng:node_rng ~send;
    apps.(i) <- app_make i;
    Engine.register engine i (fun ~from msg ->
        let from = Node_id.of_int from in
        if not (apps.(i).Runner.app_deliver ~from msg) then
          T.wrap (handler_op msg) (fun () -> samplers.(i).Rps.on_message ~from msg))
  done;
  let adversary =
    if num_byz = 0 then None
    else begin
      let malicious = Array.init num_byz (fun i -> Node_id.of_int (q + i)) in
      let correct = Array.init q Node_id.of_int in
      let send ~src ~dst msg =
        meter adversary_bytes msg;
        esend ~src:(Node_id.to_int src) ~dst:(Node_id.to_int dst) msg
      in
      let adv =
        Adversary.create ~rng:adversary_rng ~malicious ~correct
          ~v:(Scenario.view_size s) ~force:s.Scenario.force
          ~strategy:s.Scenario.strategy ~send ()
      in
      for i = q to n - 1 do
        Engine.register engine i (fun ~from msg ->
            T.wrap o_adv_msg (fun () ->
                Adversary.on_message adv ~victim_reply:true
                  ~from:(Node_id.of_int from) ~to_:(Node_id.of_int i) msg))
      done;
      Some adv
    end
  in
  let tau = Scenario.tau s in
  let refresh = Scenario.refresh_interval s in
  for i = 0 to q - 1 do
    let phase = Rng.float node_rng tau in
    Engine.every engine ~phase ~interval:tau (fun () ->
        T.wrap o_round (fun () -> samplers.(i).Rps.on_round ());
        apps.(i).Runner.app_round ());
    let sample_phase = phase +. Rng.float node_rng refresh in
    Engine.every engine ~phase:sample_phase ~interval:refresh (fun () ->
        T.wrap o_sim_tick (fun () ->
            let samples = T.wrap o_tick (fun () -> samplers.(i).Rps.sample_tick ()) in
            List.iter
              (fun p ->
                let idx = Node_id.to_int p in
                if idx < n then sample_histogram.(idx) <- sample_histogram.(idx) + 1)
              samples;
            Sample_stream.push_list streams.(i) samples;
            apps.(i).Runner.app_tick samples))
  done;
  (match adversary with
  | Some adv ->
      Engine.every engine ~phase:tau ~interval:tau (fun () ->
          T.wrap o_adv_round (fun () -> Adversary.on_round adv))
  | None -> ());
  (* The runner's measurement sweep, without the observability
     registry (disabled in the untraced run too). *)
  let series = Measurements.create () in
  let views u = if u < q then samplers.(u).Rps.current_view () else [||] in
  let measure () =
    T.wrap o_measure (fun () ->
        let time = Engine.now engine in
        let view_acc = Online.create () in
        let sample_acc = Online.create () in
        let isolated = ref 0 in
        for i = 0 to q - 1 do
          let view = samplers.(i).Rps.current_view () in
          if Array.length view > 0 then
            Online.add view_acc (View_ops.proportion malicious_pred view);
          if Sample_stream.retained streams.(i) > 0 then
            Online.add sample_acc (Sample_stream.proportion malicious_pred streams.(i));
          if Isolation.is_isolated ~is_malicious:malicious_pred view then incr isolated
        done;
        let isolated_frac = float_of_int !isolated /. float_of_int (max 1 q) in
        let clustering, mean_path, indegree_spread =
          if s.Scenario.graph_metrics then begin
            let g = T.wrap o_of_views (fun () -> Digraph.of_views ~n views) in
            let is_mal u = u >= q in
            let c =
              T.wrap o_clustering (fun () ->
                  Metrics.clustering_coefficient ~rng:metric_rng ~is_malicious:is_mal g)
            in
            let p =
              T.wrap o_mean_path (fun () ->
                  Metrics.mean_path_length ~rng:metric_rng ~is_malicious:is_mal g)
            in
            let d =
              T.wrap o_indegree (fun () ->
                  Metrics.indegree_decile_spread ~is_malicious:is_mal g)
            in
            (Some c, Some p, Some d)
          end
          else (None, None, None)
        in
        Measurements.add series
          {
            Measurements.time;
            view_byz = Online.mean view_acc;
            sample_byz = Online.mean sample_acc;
            isolated = isolated_frac;
            clustering;
            mean_path;
            indegree_spread;
            metrics = None;
          })
  in
  Engine.every engine ~phase:s.Scenario.measure_every
    ~interval:s.Scenario.measure_every measure;
  Engine.run_until engine s.Scenario.steps;
  (match Measurements.last series with
  | Some p when p.Measurements.time >= Engine.now engine -> ()
  | Some _ | None -> measure ());
  let final = Option.get (Measurements.last series) in
  finish_pass
    ~label:(match kind with Flood -> Scenario.protocol_name s | Broadcast -> "broadcast")
    ~t0 m ~stats:(Engine.stats engine) ~view_byz:final.Measurements.view_byz
    ~sample_byz:final.Measurements.sample_byz
    ~gossip:(match kind with Flood -> None | Broadcast -> Some (gossip_out gst))
