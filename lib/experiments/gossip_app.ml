(* The gossip application a scenario file mounts with (app (gossip ...)):
   the publish plan, the per-node RNG splits and the delivery accounting
   of the broadcast experiment (scenarios/broadcast.scn). *)

module Scenario = Basalt_sim.Scenario
module Runner = Basalt_sim.Runner
module Gossip = Basalt_gossip.Gossip
module Delivery = Basalt_gossip.Delivery
module Rng = Basalt_prng.Rng
module Node_id = Basalt_proto.Node_id

type params = { publishes : int; warmup_frac : float; payload_bytes : int }

let params ?(publishes = 10) ?(warmup_frac = 0.4) ?(payload_bytes = 32) () =
  if publishes <= 0 then invalid_arg "Gossip_app.params: publishes <= 0";
  if warmup_frac < 0.0 || warmup_frac >= 1.0 then
    invalid_arg "Gossip_app.params: warmup_frac out of [0,1)";
  if payload_bytes <= 0 then invalid_arg "Gossip_app.params: payload_bytes <= 0";
  { publishes; warmup_frac; payload_bytes }

let default_params = params ()

type summary = {
  delivered : float;
  t99 : float option;
  duplicates : int;
  deliveries : int;
}

(* The publish plan: [publishes] messages from rotating correct
   publishers, one per time unit, starting after a warmup fraction of
   the run so meshes exist (and, under a partition condition, spanning
   the cut). *)
let plan ~p ~q ~steps =
  List.init p.publishes (fun k ->
      let time = (p.warmup_frac *. steps) +. float_of_int k in
      let publisher = 17 * (k + 1) mod q in
      let payload =
        Bytes.make p.payload_bytes (Char.chr (65 + (k mod 26)))
      in
      (time, publisher, payload))

let run ?(params = default_params) ?(trace = false) s =
  let q = Scenario.num_correct s in
  let tracker = Delivery.create ~n:q () in
  let gossips = Array.make q None in
  let app ctx =
    List.iter
      (fun (time, p, payload) ->
        ctx.Runner.app_schedule ~delay:time (fun () ->
            if ctx.Runner.app_alive p then
              match gossips.(p) with
              | Some g ->
                  let mid = Gossip.publish g payload in
                  Delivery.published tracker mid ~time:(ctx.Runner.app_now ())
              | None -> ()))
      (plan ~p:params ~q ~steps:s.Scenario.steps);
    fun i ->
      let rng = Rng.split ctx.Runner.app_rng in
      let g =
        Gossip.create ~obs:ctx.Runner.app_obs ~node:(Node_id.of_int i)
          ~view:(fun () -> ctx.Runner.app_view i)
          ~rng
          ~send:(fun ~dst msg -> ctx.Runner.app_send ~src:i ~dst msg)
          ~deliver:(fun mid _payload ->
            Delivery.delivered tracker mid ~node:i
              ~time:(ctx.Runner.app_now ()))
          ()
      in
      gossips.(i) <- Some g;
      {
        Runner.app_deliver = (fun ~from msg -> Gossip.on_message g ~from msg);
        app_tick = (fun ps -> Gossip.on_samples g ps);
        app_round = (fun () -> Gossip.heartbeat g);
      }
  in
  let result = Runner.run ~app ~obs:trace ~trace s in
  let duplicates = ref 0 in
  let deliveries = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some g ->
          let st = Gossip.stats g in
          duplicates := !duplicates + st.Gossip.duplicates;
          deliveries := !deliveries + st.Gossip.delivered)
    gossips;
  ( result,
    {
      delivered = Delivery.fraction tracker;
      t99 = Delivery.median_time_to_fraction tracker ~frac:0.99;
      duplicates = !duplicates;
      deliveries = !deliveries;
    } )
