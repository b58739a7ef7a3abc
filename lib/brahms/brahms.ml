module Node_id = Basalt_proto.Node_id
module Message = Basalt_proto.Message
module Rps = Basalt_proto.Rps
module View_ops = Basalt_proto.View_ops
module Rng = Basalt_prng.Rng
module Sampler_bank = Basalt_core.Sampler_bank
module Obs = Basalt_obs.Obs

type t = {
  config : Brahms_config.t;
  id : Node_id.t;
  rng : Rng.t;
  send : Rps.send;
  mutable view : Node_id.t array;
  samplers : Sampler_bank.t;  (* the min-wise sampler vector 𝒮 *)
  mutable pending_push : Node_id.t list;
  mutable pending_push_count : int;  (* push messages, for the limit *)
  mutable pending_pull : Node_id.t list;
  mutable got_pull_reply : bool;
  mutable next_reset : int;
  mutable blocked : int;
  mutable emitted : int;
  (* Run-wide instruments, shared across nodes by name (DESIGN.md §8). *)
  c_rank_evals : Obs.Counter.t;
  c_rounds : Obs.Counter.t;
  c_pulls : Obs.Counter.t;
  c_pushes : Obs.Counter.t;
  c_samples : Obs.Counter.t;
  c_slot_resets : Obs.Counter.t;
  c_view_rebuilds : Obs.Counter.t;
  (* Pull-exchange lifecycle, feeding the run-wide "brahms.pull_rtt"
     sketch (DESIGN.md §8). *)
  rtt : Obs.rtt;
}

let config t = t.config
let id t = t.id

(* Brahms's samplers run without the seen-cache: its rank-evaluation
   count keeps the naive meaning (l per non-self identifier fed), and a
   per-node cache would cost more heap than the evaluations it saves. *)
let feed_samplers t ids =
  Obs.Counter.add t.c_rank_evals (Sampler_bank.offer t.samplers ids)

let create ?(config = Brahms_config.default) ?(obs = Obs.disabled) ~id
    ~bootstrap ~rng ~send () =
  let rng = Rng.split rng in
  let send = Basalt_codec.Metered.send obs ~proto:"brahms" send in
  let samplers =
    Sampler_bank.create
      ?exclude:(if config.Brahms_config.exclude_self then Some id else None)
      config.Brahms_config.backend rng ~slots:config.Brahms_config.l
  in
  let initial_view =
    let candidates =
      Array.of_list
        (List.filter
           (fun p -> not (Node_id.equal p id))
           (Array.to_list bootstrap))
    in
    (* lint: allow D10 — bootstrap-time entanglement: samplers and the
       initial view consume the one creation stream in a fixed order that
       the pinned Brahms outcomes depend on; a split would change them. *)
    View_ops.random_subset rng ~k:config.Brahms_config.l candidates
  in
  let t =
    {
      config;
      id;
      rng;
      send;
      view = initial_view;
      samplers;
      pending_push = [];
      pending_push_count = 0;
      pending_pull = [];
      got_pull_reply = false;
      next_reset = 0;
      blocked = 0;
      emitted = 0;
      c_rank_evals = Obs.counter obs "brahms.rank_evals";
      c_rounds = Obs.counter obs "brahms.rounds";
      c_pulls = Obs.counter obs "brahms.pulls_sent";
      c_pushes = Obs.counter obs "brahms.pushes_sent";
      c_samples = Obs.counter obs "brahms.samples_emitted";
      c_slot_resets = Obs.counter obs "brahms.slot_resets";
      c_view_rebuilds = Obs.counter obs "brahms.view_rebuilds";
      rtt = Obs.rtt obs ~name:"brahms.pull";
    }
  in
  feed_samplers t bootstrap;
  t

let sampler_outputs t = Sampler_bank.peers t.samplers

(* Rebuild the view per Eq. (2):
   rand(alpha*l, pushed) ∪ rand(beta*l, pulled) ∪ rand(gamma*l, samplers). *)
let rebuild_view t =
  let cfg = t.config in
  let l = float_of_int cfg.Brahms_config.l in
  let over_limit =
    match cfg.Brahms_config.push_limit with
    | Some limit -> Int.compare t.pending_push_count limit > 0
    | None -> false
  in
  if over_limit then begin
    t.blocked <- t.blocked + 1;
    false
  end
  else if t.pending_push = [] || not t.got_pull_reply then
    (* Original Brahms only rebuilds when the round yielded both pushed
       and pulled identifiers; otherwise the previous view persists.
       This gating is part of Brahms's resilience: the push channel is
       honest-dominated (Byzantine pushes are what the deactivatable
       limit counts), so a round fed only by pull replies cannot replace
       the view. *)
    false
  else begin
    let pushed = View_ops.distinct (Array.of_list t.pending_push) in
    let pulled = View_ops.distinct (Array.of_list t.pending_pull) in
    let sampled = View_ops.distinct (sampler_outputs t) in
    let take frac arr =
      let k = int_of_float (Float.round (frac *. l)) in
      View_ops.random_subset t.rng ~k arr
    in
    let candidates =
      Array.concat
        [
          take cfg.Brahms_config.alpha pushed;
          take cfg.Brahms_config.beta pulled;
          take cfg.Brahms_config.gamma sampled;
        ]
    in
    if Array.length candidates > 0 then begin
      t.view <- candidates;
      Obs.Counter.incr t.c_view_rebuilds;
      true
    end
    else false
  end

let on_round t =
  Obs.Counter.incr t.c_rounds;
  ignore (rebuild_view t);
  t.pending_push <- [];
  t.pending_push_count <- 0;
  t.pending_pull <- [];
  t.got_pull_reply <- false;
  for _ = 1 to t.config.Brahms_config.pushes_per_round do
    match View_ops.random_member t.rng t.view with
    | Some p ->
        Obs.Counter.incr t.c_pushes;
        t.send ~dst:p (Message.Push_id t.id)
    | None -> ()
  done;
  for _ = 1 to t.config.Brahms_config.pulls_per_round do
    match View_ops.random_member t.rng t.view with
    | Some q ->
        Obs.Counter.incr t.c_pulls;
        Obs.rtt_start t.rtt ~node:(Node_id.to_int t.id)
          ~peer:(Node_id.to_int q);
        t.send ~dst:q Message.Pull_request
    | None -> ()
  done

let on_message t ~from msg =
  match msg with
  | Message.Pull_request -> t.send ~dst:from (Message.Pull_reply t.view)
  | Message.Push_id id ->
      t.pending_push <- id :: t.pending_push;
      t.pending_push_count <- t.pending_push_count + 1;
      feed_samplers t [| id |]
  | Message.Push ids ->
      (* Brahms pushes carry exactly the sender's identifier (§4.3: "limit
         pushed IDs to a peer's own ID").  A multi-identifier push — the
         generic adversary payload — is therefore parsed per protocol
         syntax as a single push from its sender; the extra payload is
         ignored. *)
      ignore ids;
      t.pending_push <- from :: t.pending_push;
      t.pending_push_count <- t.pending_push_count + 1;
      feed_samplers t [| from |]
  | Message.Pull_reply ids ->
      Obs.rtt_finish t.rtt ~peer:(Node_id.to_int from);
      (* Prepend in reverse, as [List.rev_append (Array.to_list ids)]
         would, without the intermediate list. *)
      Array.iter (fun id -> t.pending_pull <- id :: t.pending_pull) ids;
      t.got_pull_reply <- true;
      feed_samplers t ids
  (* Broadcast frames are the lib/gossip layer's; samplers ignore them. *)
  | Message.Gossip _ | Message.Ihave _ | Message.Iwant _ | Message.Graft
  | Message.Prune ->
      ()

let sample_tick t =
  let l = Sampler_bank.length t.samplers in
  let samples = ref [] in
  for _ = 1 to t.config.Brahms_config.k do
    let i = t.next_reset in
    t.next_reset <- (t.next_reset + 1) mod l;
    (match Sampler_bank.peer t.samplers i with
    | Some p ->
        samples := p :: !samples;
        t.emitted <- t.emitted + 1;
        Obs.Counter.incr t.c_samples
    | None -> ());
    Sampler_bank.reset t.samplers t.rng i;
    Obs.Counter.incr t.c_slot_resets
  done;
  List.rev !samples

let view t = t.view
let blocked_rounds t = t.blocked

let sampler ?config ?obs () : Rps.maker =
 fun ~id ~bootstrap ~rng ~send ->
  let t = create ?config ?obs ~id ~bootstrap ~rng ~send () in
  {
    Rps.protocol = "brahms";
    node = id;
    on_message = (fun ~from msg -> on_message t ~from msg);
    on_round = (fun () -> on_round t);
    sample_tick = (fun () -> sample_tick t);
    current_view = (fun () -> view t);
  }
