module Node_id = Basalt_proto.Node_id
module Message = Basalt_proto.Message
module Rps = Basalt_proto.Rps
module Rng = Basalt_prng.Rng
module Obs = Basalt_obs.Obs

(* The slots are a flat sampler bank with the seen-cache on
   (DESIGN.md §4): each candidate is ranked once per seed, not once per
   offer, and rank values are exactly the uncached ones — the
   differential oracle in test_basalt.ml pins the equivalence. *)
type t = {
  config : Config.t;
  id : Node_id.t;
  bank : Sampler_bank.t;
  uses : int array;  (* exchanges served since last reset (Least_used) *)
  rng : Rng.t;
  send : Rps.send;
  mutable next_reset : int;  (* round-robin pointer r, 0-based *)
  mutable next_select : int;  (* used by the Rotating_slot strategy *)
  mutable rounds : int;
  mutable emitted : int;
  (* Dead-peer detection: peers we pulled from and the round of the
     oldest unanswered pull (only populated when eviction is enabled). *)
  probes : (int, int) Hashtbl.t;
  mutable evicted : int;
  (* Run-wide instruments, shared across nodes by name (dummies when the
     sink is disabled — a mutation is then a dead store, DESIGN.md §8). *)
  c_rank_evals : Obs.Counter.t;
  c_rounds : Obs.Counter.t;
  c_pulls : Obs.Counter.t;
  c_pushes : Obs.Counter.t;
  c_samples : Obs.Counter.t;
  c_slot_resets : Obs.Counter.t;
  c_evictions : Obs.Counter.t;
  (* Pull-exchange lifecycle: request time and span per outstanding pull,
     feeding the run-wide "basalt.pull_rtt" sketch (DESIGN.md §8). *)
  rtt : Obs.rtt;
}

let config t = t.config
let id t = t.id

(* Rank evaluations actually performed after dedup and seen-cache
   elision — not candidates × slots (DESIGN.md §8). *)
let update_sample t ids =
  Obs.Counter.add t.c_rank_evals (Sampler_bank.offer t.bank ids)

let reset_slot t i =
  Sampler_bank.reset t.bank t.rng i;
  t.uses.(i) <- 0

let create ?(config = Config.default) ?(obs = Obs.disabled) ~id ~bootstrap
    ~rng ~send () =
  let rng = Rng.split rng in
  let v = config.Config.v in
  let bank =
    Sampler_bank.create ~seen_cache:true
      ?exclude:(if config.Config.exclude_self then Some id else None)
      config.Config.backend rng ~slots:v
  in
  let send = Basalt_codec.Metered.send obs ~proto:"basalt" send in
  let t =
    {
      config;
      id;
      bank;
      uses = Array.make v 0;
      rng;
      send;
      next_reset = 0;
      next_select = 0;
      rounds = 0;
      emitted = 0;
      probes = Hashtbl.create 16;
      evicted = 0;
      c_rank_evals = Obs.counter obs "basalt.rank_evals";
      c_rounds = Obs.counter obs "basalt.rounds";
      c_pulls = Obs.counter obs "basalt.pulls_sent";
      c_pushes = Obs.counter obs "basalt.pushes_sent";
      c_samples = Obs.counter obs "basalt.samples_emitted";
      c_slot_resets = Obs.counter obs "basalt.slot_resets";
      c_evictions = Obs.counter obs "basalt.evictions";
      rtt = Obs.rtt obs ~name:"basalt.pull";
    }
  in
  update_sample t bootstrap;
  t

let slot_peer t i = Sampler_bank.peer t.bank i
let view t = Sampler_bank.peers t.bank
let view_slots t = Array.init (Sampler_bank.length t.bank) (slot_peer t)
let slot_ranks t = Array.init (Sampler_bank.length t.bank) (Sampler_bank.rank t.bank)

let select_peer t =
  match t.config.Config.select with
  | Config.Uniform_slot ->
      (* Try a few random slots before falling back to a scan, so that a
         mostly-empty view during bootstrap still yields a peer. *)
      let v = Sampler_bank.length t.bank in
      let rec try_random attempts =
        if attempts = 0 then begin
          let rec scan i =
            if Int.compare i v >= 0 then None
            else
              match slot_peer t i with
              | Some p -> Some p
              | None -> scan (i + 1)
          in
          scan 0
        end
        else
          match slot_peer t (Rng.int t.rng v) with
          | Some p -> Some p
          | None -> try_random (attempts - 1)
      in
      try_random 8
  | Config.Rotating_slot ->
      let v = Sampler_bank.length t.bank in
      let rec scan remaining =
        if remaining = 0 then None
        else begin
          let i = t.next_select in
          t.next_select <- (t.next_select + 1) mod v;
          match slot_peer t i with
          | Some p -> Some p
          | None -> scan (remaining - 1)
        end
      in
      scan v
  | Config.Least_used_slot ->
      (* The filled slot with the fewest exchanges served since its last
         reset; ties broken by slot order. *)
      let best = ref (-1) in
      for i = 0 to Sampler_bank.length t.bank - 1 do
        if Option.is_some (slot_peer t i)
           && (!best < 0 || Int.compare t.uses.(i) t.uses.(!best) < 0)
        then best := i
      done;
      if !best < 0 then None
      else begin
        t.uses.(!best) <- t.uses.(!best) + 1;
        slot_peer t !best
      end

(* Reset every slot currently holding [peer] and re-offer the rest of the
   view, so the freed slots immediately converge to live candidates. *)
let evict_peer t peer =
  let snapshot =
    Array.of_list
      (List.filter
         (fun p -> not (Node_id.equal p peer))
         (Array.to_list (view t)))
  in
  for i = 0 to Sampler_bank.length t.bank - 1 do
    if Option.equal Node_id.equal (slot_peer t i) (Some peer) then begin
      reset_slot t i;
      t.evicted <- t.evicted + 1;
      Obs.Counter.incr t.c_evictions
    end
  done;
  update_sample t snapshot

let run_eviction t ~limit =
  (* Evicting consumes PRNG draws (slot resets), so the eviction order
     must not depend on [Hashtbl] iteration order — sort by node id to
     keep executions a pure function of the protocol history. *)
  let expired =
    List.sort Int.compare
      (Hashtbl.fold
         (fun peer probed acc ->
           if t.rounds - probed > limit then peer :: acc else acc)
         t.probes [])
  in
  List.iter
    (fun peer ->
      Hashtbl.remove t.probes peer;
      evict_peer t (Node_id.of_int peer))
    expired

let record_probe t peer =
  let key = Node_id.to_int peer in
  if not (Hashtbl.mem t.probes key) then Hashtbl.replace t.probes key t.rounds

let on_round t =
  t.rounds <- t.rounds + 1;
  Obs.Counter.incr t.c_rounds;
  (match t.config.Config.evict_after_rounds with
  | Some limit -> run_eviction t ~limit
  | None -> ());
  (match select_peer t with
  | Some p ->
      (* Record the probe before sending so that a reply — however fast —
         always clears it. *)
      (match t.config.Config.evict_after_rounds with
      | Some _ -> record_probe t p
      | None -> ());
      Obs.Counter.incr t.c_pulls;
      Obs.rtt_start t.rtt ~node:(Node_id.to_int t.id)
        ~peer:(Node_id.to_int p);
      t.send ~dst:p Message.Pull_request
  | None -> ());
  match select_peer t with
  | Some q ->
      let payload =
        if t.config.Config.push_own_id_only then Message.Push_id t.id
        else Message.Push (view t)
      in
      Obs.Counter.incr t.c_pushes;
      t.send ~dst:q payload
  | None -> ()

let on_message t ~from msg =
  (* Any traffic from a peer proves it alive. *)
  if t.config.Config.evict_after_rounds <> None then
    Hashtbl.remove t.probes (Node_id.to_int from);
  match msg with
  | Message.Pull_request -> t.send ~dst:from (Message.Pull_reply (view t))
  | Message.Pull_reply ids ->
      Obs.rtt_finish t.rtt ~peer:(Node_id.to_int from);
      (* Alg. 1 line 13: the sender itself is a candidate too. *)
      update_sample t ids;
      update_sample t [| from |]
  | Message.Push ids ->
      update_sample t ids;
      update_sample t [| from |]
  | Message.Push_id id -> update_sample t [| id |]
  (* Broadcast frames belong to the lib/gossip layer sharing the socket;
     the sampler only takes the liveness signal above. *)
  | Message.Gossip _ | Message.Ihave _ | Message.Iwant _ | Message.Graft
  | Message.Prune ->
      ()

let sample_tick t =
  let v = Sampler_bank.length t.bank in
  let k = t.config.Config.k in
  (* Snapshot the pre-reset view: Alg. 1 line 19 re-offers "the current
     view", in which the just-reset slots still hold their old peers. *)
  let snapshot = view t in
  let samples = ref [] in
  for _ = 1 to k do
    let i = t.next_reset in
    t.next_reset <- (t.next_reset + 1) mod v;
    (match slot_peer t i with
    | Some p ->
        samples := p :: !samples;
        t.emitted <- t.emitted + 1;
        Obs.Counter.incr t.c_samples
    | None -> ());
    reset_slot t i;
    Obs.Counter.incr t.c_slot_resets
  done;
  Sampler_bank.prune_seen t.bank;
  update_sample t snapshot;
  List.rev !samples

let samples_emitted t = t.emitted
let rounds_executed t = t.rounds
let evictions t = t.evicted

let sampler ?config ?obs () : Rps.maker =
 fun ~id ~bootstrap ~rng ~send ->
  let t = create ?config ?obs ~id ~bootstrap ~rng ~send () in
  {
    Rps.protocol = "basalt";
    node = id;
    on_message = (fun ~from msg -> on_message t ~from msg);
    on_round = (fun () -> on_round t);
    sample_tick = (fun () -> sample_tick t);
    current_view = (fun () -> view t);
  }
