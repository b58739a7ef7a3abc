(* Tests for basalt.core: config, the sampler bank's slots, the Basalt
   algorithm, streams. *)

open Basalt_core
module Node_id = Basalt_proto.Node_id
module Message = Basalt_proto.Message
module Rank = Basalt_hashing.Rank

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let id = Node_id.of_int
let rng () = Basalt_prng.Rng.create ~seed:1234

(* --- Config --- *)

let config_defaults () =
  let c = Config.default in
  check_int "v" 160 c.Config.v;
  check_int "k = v/2" 80 c.Config.k;
  Alcotest.(check (float 1e-9)) "tau" 1.0 c.Config.tau;
  Alcotest.(check (float 1e-9)) "rho" 1.0 c.Config.rho;
  check_bool "exclude_self" true c.Config.exclude_self

let config_validation () =
  let expect msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  expect "Config.make: v must be positive" (fun () ->
      ignore (Config.make ~v:0 ()));
  expect "Config.make: k must be in [1, v]" (fun () ->
      ignore (Config.make ~v:10 ~k:11 ()));
  expect "Config.make: k must be in [1, v]" (fun () ->
      ignore (Config.make ~v:10 ~k:0 ()));
  expect "Config.make: tau must be positive" (fun () ->
      ignore (Config.make ~tau:0.0 ()));
  expect "Config.make: rho must be positive" (fun () ->
      ignore (Config.make ~rho:(-1.0) ()))

let config_intervals () =
  let c = Config.make ~v:100 ~k:50 ~rho:2.0 () in
  Alcotest.(check (float 1e-9)) "refresh = k/rho" 25.0 (Config.refresh_interval c);
  Alcotest.(check (float 1e-9)) "lifetime = v/rho" 50.0 (Config.slot_lifetime c)

let config_equilibrium () =
  let c = Config.make ~v:160 () in
  check_bool "paper base has equilibrium" true
    (Config.equilibrium_exists c ~n:10_000 ~f:0.1);
  let tiny = Config.make ~v:10 () in
  check_bool "tiny view has none" false
    (Config.equilibrium_exists tiny ~n:10_000 ~f:0.1)

(* --- Slot (one slot of a sampler bank) --- *)

(* A bank's seeds are its rng's first [Rank.fresh] draws, in slot order,
   so a same-seeded rng reproduces them for reference ranking. *)
let bank_seeds ~backend ~seed ~slots =
  let r = Basalt_prng.Rng.create ~seed in
  Array.init slots (fun _ -> Rank.fresh backend r)

let bank ?seen_cache ?(slots = 1) () =
  Sampler_bank.create ?seen_cache Rank.Cheap (rng ()) ~slots

let slot_empty () =
  let b = bank () in
  check_bool "starts empty" true (Sampler_bank.peer b 0 = None);
  check_bool "no rank" true (Sampler_bank.rank b 0 = None);
  check_int "no peers" 0 (Array.length (Sampler_bank.peers b))

let slot_offer_fills () =
  let b = bank () in
  check_int "first offer evaluated" 1 (Sampler_bank.offer b [| id 3 |]);
  check_bool "filled" true (Sampler_bank.peer b 0 = Some (id 3))

let slot_keeps_minimum () =
  List.iter
    (fun seen_cache ->
      let b = bank ~seen_cache () in
      (* Offer many candidates; the slot must end up holding the argmin of
         the rank function over all offered ids. *)
      for i = 0 to 99 do
        ignore (Sampler_bank.offer b [| id i |])
      done;
      let seed = (bank_seeds ~backend:Rank.Cheap ~seed:1234 ~slots:1).(0) in
      let best = ref 0 in
      for i = 1 to 99 do
        if Rank.rank seed i < Rank.rank seed !best then best := i
      done;
      check_bool "holds global argmin" true
        (Sampler_bank.peer b 0 = Some (id !best)))
    [ false; true ]

let slot_rejects_worse () =
  List.iter
    (fun seen_cache ->
      let b = bank ~seen_cache ~slots:4 () in
      let ids = Array.init 100 id in
      ignore (Sampler_bank.offer b ids);
      let held = Sampler_bank.peers b
      and ranks = List.init 4 (Sampler_bank.rank b) in
      (* Re-offering everything cannot change any slot; with the
         seen-cache it does not even rank anything. *)
      let evals = Sampler_bank.offer b ids in
      if seen_cache then check_int "re-offer skipped" 0 evals;
      check_bool "same peers" true (Sampler_bank.peers b = held);
      check_bool "same ranks" true (List.init 4 (Sampler_bank.rank b) = ranks))
    [ false; true ]

let slot_reset () =
  let r = rng () in
  let b = Sampler_bank.create ~seen_cache:true Rank.Cheap r ~slots:2 in
  ignore (Sampler_bank.offer b [| id 1; id 2 |]);
  Sampler_bank.reset b r 0;
  check_bool "cleared" true (Sampler_bank.peer b 0 = None);
  check_bool "other slot kept" true (Sampler_bank.peer b 1 <> None);
  (* The seen-cache must not hide a known id from the fresh seed. *)
  check_int "re-offer ranks only the reset slot" 1
    (Sampler_bank.offer b [| id 1 |]);
  check_bool "refilled" true (Sampler_bank.peer b 0 = Some (id 1))

let slot_cached_rank_agrees () =
  let b = bank ~slots:3 () in
  ignore (Sampler_bank.offer b (Array.init 50 id));
  let seeds = bank_seeds ~backend:Rank.Cheap ~seed:1234 ~slots:3 in
  Array.iteri
    (fun i seed ->
      match (Sampler_bank.peer b i, Sampler_bank.rank b i) with
      | Some p, Some rank ->
          check_int "cached rank is the true rank" rank
            (Rank.rank seed (Node_id.to_int p))
      | _ -> Alcotest.fail "slot should be filled")
    seeds

(* --- Basalt --- *)

let capture_send () =
  let sent = ref [] in
  let send ~dst msg = sent := (dst, msg) :: !sent in
  (sent, send)

let make_basalt ?(v = 8) ?(k = 2) ?(bootstrap = Array.init 5 (fun i -> id (i + 1)))
    () =
  let _, send = capture_send () in
  Basalt.create
    ~config:(Config.make ~v ~k ())
    ~id:(id 0) ~bootstrap ~rng:(rng ()) ~send ()

let basalt_bootstrap_fills_view () =
  let t = make_basalt () in
  let view = Basalt.view t in
  check_int "all slots filled" 8 (Array.length view);
  Array.iter
    (fun p ->
      check_bool "view entry from bootstrap" true
        (Node_id.to_int p >= 1 && Node_id.to_int p <= 5))
    view

let basalt_empty_bootstrap () =
  let t = make_basalt ~bootstrap:[||] () in
  check_int "empty view" 0 (Array.length (Basalt.view t));
  check_bool "no peer" true (Basalt.select_peer t = None);
  (* on_round with empty view must not crash or send *)
  Basalt.on_round t

let basalt_excludes_self () =
  let t = make_basalt ~bootstrap:[| id 0; id 0; id 3 |] () in
  Array.iter
    (fun p -> check_bool "self never in view" false (Node_id.equal p (id 0)))
    (Basalt.view t)

let basalt_update_sample_converges () =
  let t = make_basalt ~v:16 () in
  Basalt.update_sample t (Array.init 200 id);
  (* Every slot must now hold the argmin over all non-self ids. *)
  Array.iteri
    (fun _ slot_peer ->
      match slot_peer with
      | Some _ -> ()
      | None -> Alcotest.fail "slot empty after mass update")
    (Basalt.view_slots t);
  (* Feeding again changes nothing (stubbornness). *)
  let before = Basalt.view t in
  Basalt.update_sample t (Array.init 200 id);
  Alcotest.(check (array int))
    "stubborn"
    (Array.map Node_id.to_int before)
    (Array.map Node_id.to_int (Basalt.view t))

let basalt_select_peer_member () =
  let t = make_basalt () in
  match Basalt.select_peer t with
  | Some p ->
      check_bool "selected from view" true
        (Basalt_proto.View_ops.contains (Basalt.view t) p)
  | None -> Alcotest.fail "view non-empty"

let basalt_on_round_sends () =
  let sent, send = capture_send () in
  let t =
    Basalt.create
      ~config:(Config.make ~v:8 ~k:2 ())
      ~id:(id 0)
      ~bootstrap:(Array.init 5 (fun i -> id (i + 1)))
      ~rng:(rng ()) ~send ()
  in
  Basalt.on_round t;
  check_int "two messages per round" 2 (List.length !sent);
  let kinds = List.map (fun (_, m) -> Message.kind m) !sent in
  check_bool "one push" true (List.mem "push" kinds);
  check_bool "one pull" true (List.mem "pull" kinds);
  check_int "rounds counted" 1 (Basalt.rounds_executed t)

let basalt_pull_answered () =
  let sent, send = capture_send () in
  let t =
    Basalt.create
      ~config:(Config.make ~v:4 ())
      ~id:(id 0)
      ~bootstrap:[| id 1; id 2 |]
      ~rng:(rng ()) ~send ()
  in
  Basalt.on_message t ~from:(id 9) Message.Pull_request;
  match !sent with
  | [ (dst, Message.Pull_reply view) ] ->
      check_int "reply to requester" 9 (Node_id.to_int dst);
      check_bool "reply carries view" true (Array.length view > 0)
  | _ -> Alcotest.fail "expected exactly one pull reply"

let basalt_push_includes_sender () =
  let t = make_basalt ~v:64 ~bootstrap:[| id 1 |] () in
  (* A push from node 7 carrying nothing new: sender itself must be
     considered (Alg. 1 line 13). *)
  Basalt.on_message t ~from:(id 7) (Message.Push [||]);
  check_bool "sender entered some slot" true
    (Basalt_proto.View_ops.contains (Basalt.view t) (id 7))

let basalt_sample_tick_emits () =
  let t = make_basalt ~v:8 ~k:3 () in
  let samples = Basalt.sample_tick t in
  check_int "k samples when slots filled" 3 (List.length samples);
  check_int "counter" 3 (Basalt.samples_emitted t);
  (* After the tick the view is still full: line 19 re-offered the
     snapshot to the reset slots. *)
  check_int "view refilled" 8 (Array.length (Basalt.view t))

let basalt_sample_tick_round_robin () =
  let t = make_basalt ~v:4 ~k:4 () in
  (* k = v: every slot sampled exactly once per tick. *)
  let s1 = Basalt.sample_tick t in
  check_int "v samples" 4 (List.length s1);
  let s2 = Basalt.sample_tick t in
  check_int "again v samples" 4 (List.length s2)

let basalt_sample_tick_empty_slots () =
  let t = make_basalt ~v:4 ~k:2 ~bootstrap:[||] () in
  check_bool "no samples from empty view" true (Basalt.sample_tick t = [])

let basalt_sampler_interface () =
  let maker = Basalt.sampler ~config:(Config.make ~v:8 ()) () in
  let sent = ref 0 in
  let s =
    maker ~id:(id 0)
      ~bootstrap:(Array.init 4 (fun i -> id (i + 1)))
      ~rng:(rng ())
      ~send:(fun ~dst:_ _ -> incr sent)
  in
  Alcotest.(check string) "protocol name" "basalt" s.Basalt_proto.Rps.protocol;
  s.Basalt_proto.Rps.on_round ();
  check_int "round sends" 2 !sent;
  check_bool "view non-empty" true
    (Array.length (s.Basalt_proto.Rps.current_view ()) > 0)

(* Stubbornness against flooding: a slot can only be displaced by an id
   that genuinely ranks lower, so repeated floods of the SAME malicious
   ids cannot increase their representation (the paper's core claim). *)
let basalt_flood_resistance () =
  let t = make_basalt ~v:64 ~bootstrap:(Array.init 50 (fun i -> id (i + 1))) () in
  let flood = Array.init 10 (fun i -> id (1000 + i)) in
  Basalt.update_sample t flood;
  let count_flood () =
    Basalt_proto.View_ops.count
      (fun p -> Node_id.to_int p >= 1000)
      (Basalt.view t)
  in
  let after_once = count_flood () in
  for _ = 1 to 100 do
    Basalt.update_sample t flood
  done;
  check_int "flooding again gains nothing" after_once (count_flood ())

let basalt_least_used_balances () =
  let _, send = capture_send () in
  let t =
    Basalt.create
      ~config:(Config.make ~v:8 ~k:2 ~select:Config.Least_used_slot ())
      ~id:(id 0)
      ~bootstrap:(Array.init 20 (fun i -> id (i + 1)))
      ~rng:(rng ()) ~send ()
  in
  (* Selecting v times must visit v distinct slots (each selection
     increments the chosen slot's counter, pushing it to the back). *)
  let slots = Basalt.view_slots t in
  let picks = List.init (Array.length slots) (fun _ -> Basalt.select_peer t) in
  let ids =
    List.filter_map (Option.map Basalt_proto.Node_id.to_int) picks
  in
  check_int "every selection succeeded" (Array.length slots) (List.length ids);
  (* The multiset of picks equals the multiset of slot peers: each slot
     used exactly once before any is reused. *)
  let slot_ids =
    Array.to_list slots
    |> List.filter_map (Option.map Basalt_proto.Node_id.to_int)
    |> List.sort Int.compare
  in
  Alcotest.(check (list int))
    "round of selections covers all slots exactly once" slot_ids
    (List.sort Int.compare ids)

let basalt_least_used_empty () =
  let _, send = capture_send () in
  let t =
    Basalt.create
      ~config:(Config.make ~v:4 ~select:Config.Least_used_slot ())
      ~id:(id 0) ~bootstrap:[||] ~rng:(rng ()) ~send ()
  in
  check_bool "no peer from empty view" true (Basalt.select_peer t = None)

let basalt_push_payload_ablation () =
  let sent, send = capture_send () in
  let t =
    Basalt.create
      ~config:(Config.make ~v:8 ~k:2 ~push_own_id_only:true ())
      ~id:(id 0)
      ~bootstrap:(Array.init 5 (fun i -> id (i + 1)))
      ~rng:(rng ()) ~send ()
  in
  Basalt.on_round t;
  let kinds = List.map (fun (_, m) -> Message.kind m) !sent in
  check_bool "push carries only the sender id" true (List.mem "push-id" kinds);
  check_bool "no full-view push" false (List.mem "push" kinds);
  (* the Push_id must carry the local id *)
  List.iter
    (fun (_, m) ->
      match m with
      | Message.Push_id p -> check_int "own id" 0 (Node_id.to_int p)
      | _ -> ())
    !sent

(* --- Dead-peer eviction --- *)

let eviction_config = Config.make ~v:8 ~k:2 ~evict_after_rounds:2 ()

let eviction_validation () =
  Alcotest.check_raises "non-positive limit"
    (Invalid_argument "Config.make: evict_after_rounds must be positive")
    (fun () -> ignore (Config.make ~evict_after_rounds:0 ()))

let eviction_sheds_silent_peers () =
  let _, send = capture_send () in
  let t =
    Basalt.create ~config:eviction_config ~id:(id 0)
      ~bootstrap:[| id 1; id 2; id 3 |]
      ~rng:(rng ()) ~send ()
  in
  (* Nobody ever answers: after enough rounds every pulled peer gets
     evicted and, since no new candidates arrive, the view drains. *)
  for _ = 1 to 60 do
    Basalt.on_round t
  done;
  check_bool "evictions happened" true (Basalt.evictions t > 0);
  check_int "view fully drained" 0 (Array.length (Basalt.view t))

let eviction_spares_responsive_peers () =
  let t_ref = ref None in
  (* Peers answer every pull instantly. *)
  let send ~dst msg =
    match (msg, !t_ref) with
    | Basalt_proto.Message.Pull_request, Some t ->
        Basalt.on_message t ~from:dst (Basalt_proto.Message.Push [| dst |])
    | _ -> ()
  in
  let t =
    Basalt.create ~config:eviction_config ~id:(id 0)
      ~bootstrap:[| id 1; id 2; id 3 |]
      ~rng:(rng ()) ~send ()
  in
  t_ref := Some t;
  for _ = 1 to 60 do
    Basalt.on_round t
  done;
  check_int "no evictions for live peers" 0 (Basalt.evictions t);
  check_bool "view retained" true (Array.length (Basalt.view t) > 0)

let eviction_disabled_by_default () =
  let _, send = capture_send () in
  let t =
    Basalt.create
      ~config:(Config.make ~v:8 ~k:2 ())
      ~id:(id 0)
      ~bootstrap:[| id 1 |]
      ~rng:(rng ()) ~send ()
  in
  for _ = 1 to 60 do
    Basalt.on_round t
  done;
  check_int "no evictions" 0 (Basalt.evictions t);
  check_bool "silent peers kept (stubbornness)" true
    (Array.length (Basalt.view t) > 0)

let eviction_order_is_deterministic () =
  (* Regression: a mass eviction used to process peers in [Hashtbl.fold]
     order, which depends on probe *insertion* order; since every slot
     reset consumes PRNG draws, two nodes with identical state but
     different probe histories diverged.  Eviction must be a function of
     the probe *set*, not its insertion order. *)
  let node () =
    let _, send = capture_send () in
    Basalt.create ~config:eviction_config ~id:(id 0)
      ~bootstrap:(Array.init 20 (fun i -> id (i + 1)))
      ~rng:(rng ()) ~send ()
  in
  let peers = List.init 12 (fun i -> i + 1) in
  let run order =
    let t = node () in
    List.iter (fun p -> Basalt.record_probe t (id p)) order;
    (* Three silent rounds push every probe past the limit of 2. *)
    for _ = 1 to 3 do
      Basalt.on_round t
    done;
    t
  in
  let asc = run peers in
  let desc = run (List.rev peers) in
  check_bool "evictions fired" true (Basalt.evictions asc > 0);
  check_int "same eviction count" (Basalt.evictions asc)
    (Basalt.evictions desc);
  Alcotest.(check (array int))
    "identical views regardless of probe insertion order"
    (Array.map Node_id.to_int (Basalt.view asc))
    (Array.map Node_id.to_int (Basalt.view desc))

let probe_cleared_on_any_traffic () =
  (* Any message from a probed peer — here a bare PULL — must clear its
     pending probe, sparing it from the next eviction pass. *)
  let _, send = capture_send () in
  let t =
    Basalt.create
      ~config:(Config.make ~v:8 ~k:2 ~evict_after_rounds:100 ())
      ~id:(id 0)
      ~bootstrap:[| id 1; id 2; id 3 |]
      ~rng:(rng ()) ~send ()
  in
  Basalt.record_probe t (id 1);
  Basalt.record_probe t (id 2);
  Basalt.on_round t;
  Basalt.on_message t ~from:(id 1) Message.Pull_request;
  Basalt.run_eviction t ~limit:0;
  let view = Array.map Node_id.to_int (Basalt.view t) in
  check_bool "unanswered probe evicted" false (Array.mem 2 view);
  check_bool "answering peer survives" true (Array.mem 1 view)

let probe_recorded_before_send () =
  (* The probe is registered before the PULL leaves the node, so even a
     same-instant reply finds (and clears) it — no lost-wakeup window. *)
  let t_ref = ref None in
  let probe_was_pending = ref false in
  let send ~dst msg =
    match (msg, !t_ref) with
    | Basalt_proto.Message.Pull_request, Some t ->
        (* Evicting with limit -1 expires every pending probe, including
           one recorded in the current round: the pulled peer vanishes
           from the view exactly when its probe was already registered. *)
        let before = Array.mem dst (Basalt.view t) in
        Basalt.run_eviction t ~limit:(-1);
        let after = Array.mem dst (Basalt.view t) in
        if before && not after then probe_was_pending := true
    | _ -> ()
  in
  let t =
    Basalt.create ~config:eviction_config ~id:(id 0)
      ~bootstrap:[| id 1; id 2; id 3 |]
      ~rng:(rng ()) ~send ()
  in
  t_ref := Some t;
  Basalt.on_round t;
  check_bool "probe visible at send time" true !probe_was_pending

let eviction_resets_slots_and_reoffers () =
  let _, send = capture_send () in
  let t =
    Basalt.create
      ~config:(Config.make ~v:8 ~k:2 ~evict_after_rounds:100 ())
      ~id:(id 0)
      ~bootstrap:[| id 1; id 2 |]
      ~rng:(rng ()) ~send ()
  in
  let held_by_victim =
    Array.fold_left
      (fun acc slot -> if slot = Some (id 2) then acc + 1 else acc)
      0 (Basalt.view_slots t)
  in
  check_bool "victim held some slots" true (held_by_victim > 0);
  Basalt.record_probe t (id 2);
  Basalt.on_round t;
  Basalt.run_eviction t ~limit:0;
  check_int "one reset per held slot" held_by_victim (Basalt.evictions t);
  let view = Array.map Node_id.to_int (Basalt.view t) in
  check_bool "victim gone" false (Array.mem 2 view);
  (* The pre-eviction view minus the victim was re-offered, so the freed
     slots converge back to the survivor instead of staying empty. *)
  check_int "every slot refilled from the snapshot" 8 (Array.length view);
  check_bool "survivor everywhere" true (Array.for_all (Int.equal 1) view)

(* --- Sample_stream --- *)

let stream_basics () =
  let s = Sample_stream.create ~capacity:3 in
  check_int "empty" 0 (Sample_stream.retained s);
  Sample_stream.push s (id 1);
  Sample_stream.push s (id 2);
  check_int "two retained" 2 (Sample_stream.retained s);
  check_int "total" 2 (Sample_stream.total s)

let stream_eviction () =
  let s = Sample_stream.create ~capacity:3 in
  List.iter (Sample_stream.push s) [ id 1; id 2; id 3; id 4 ];
  check_int "capped" 3 (Sample_stream.retained s);
  check_int "total keeps counting" 4 (Sample_stream.total s);
  Alcotest.(check (list int))
    "newest first, oldest evicted" [ 4; 3; 2 ]
    (List.map Node_id.to_int (Sample_stream.recent s 5))

let stream_proportion () =
  let s = Sample_stream.create ~capacity:10 in
  List.iter (Sample_stream.push s) [ id 1; id 2; id 3; id 4 ];
  Alcotest.(check (float 1e-9)) "proportion" 0.5
    (Sample_stream.proportion (fun x -> Node_id.to_int x mod 2 = 0) s);
  Alcotest.(check (float 1e-9)) "empty stream" 0.0
    (Sample_stream.proportion (fun _ -> true) (Sample_stream.create ~capacity:4))

let stream_iter_order () =
  let s = Sample_stream.create ~capacity:3 in
  List.iter (Sample_stream.push s) [ id 1; id 2; id 3; id 4 ];
  let seen = ref [] in
  Sample_stream.iter (fun x -> seen := Node_id.to_int x :: !seen) s;
  Alcotest.(check (list int)) "oldest first" [ 4; 3; 2 ] !seen

let stream_draw () =
  let s = Sample_stream.create ~capacity:8 in
  check_int "draw from empty" 0
    (Array.length (Sample_stream.draw s (rng ()) ~k:5));
  List.iter (Sample_stream.push s) [ id 1; id 2; id 3 ];
  let d = Sample_stream.draw s (rng ()) ~k:10 in
  check_int "draws k with replacement" 10 (Array.length d);
  Array.iter
    (fun x ->
      check_bool "drawn from retained" true
        (List.mem (Node_id.to_int x) [ 1; 2; 3 ]))
    d

let stream_invalid () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Sample_stream.create: capacity <= 0") (fun () ->
      ignore (Sample_stream.create ~capacity:0))

module Check = Basalt_check.Check
module Gen = Check.Gen
module Print = Check.Print

(* Model-based test: the ring buffer must behave exactly like an
   unbounded list truncated to the last [capacity] elements. *)
let prop_stream_model =
  Check.prop ~name:"sample stream matches list reference" ~count:300
    ~print:(Print.pair Print.int (Print.list Print.int))
    (Gen.pair (Gen.int_range 1 8) (Gen.list ~max_len:40 (Gen.nat ~max:100)))
    (fun (capacity, pushes) ->
      let s = Sample_stream.create ~capacity in
      let reference = ref [] in
      List.iter
        (fun x ->
          Sample_stream.push s (Node_id.of_int x);
          reference := x :: !reference)
        pushes;
      let expected_window =
        List.filteri (fun i _ -> i < capacity) !reference
      in
      let got =
        List.map Node_id.to_int (Sample_stream.recent s capacity)
      in
      got = expected_window
      && Sample_stream.total s = List.length pushes
      && Sample_stream.retained s = List.length expected_window)

let seed_and_ids =
  Gen.pair (Gen.nat ~max:10_000)
    (Gen.list ~min_len:1 ~max_len:30 (Gen.nat ~max:100))

let print_seed_ids = Print.pair Print.int (Print.list Print.int)

let make_node ?(v = 8) seed =
  let send ~dst:_ _ = () in
  Basalt.create
    ~config:(Config.make ~v ())
    ~id:(Node_id.of_int 0) ~bootstrap:[||]
    ~rng:(Basalt_prng.Rng.create ~seed)
    ~send ()

let prop_view_subset_of_fed =
  Check.prop ~name:"view is a subset of fed identifiers" ~count:200
    ~print:print_seed_ids seed_and_ids
    (fun (seed, ids) ->
      let t = make_node seed in
      let fed = Array.of_list (List.map (fun i -> Node_id.of_int (i + 1)) ids) in
      Basalt.update_sample t fed;
      Array.for_all (Basalt_proto.View_ops.contains fed) (Basalt.view t))

(* Differential oracle for the hot path: every slot must hold exactly
   the argmin of its rank function over all offered identifiers (the
   oblivious reference model of Alg. 1 lines 20-23). *)
let prop_slot_argmin =
  Check.prop ~name:"slot holds the argmin-rank identifier" ~count:300
    ~print:print_seed_ids seed_and_ids
    (fun (seed, ids) ->
      let slots = 4 in
      let b =
        Sampler_bank.create Rank.Cheap (Basalt_prng.Rng.create ~seed) ~slots
      in
      ignore (Sampler_bank.offer b (Array.of_list (List.map id ids)));
      let seeds = bank_seeds ~backend:Rank.Cheap ~seed ~slots in
      List.for_all
        (fun i ->
          let rank x = Rank.rank seeds.(i) x in
          let best = List.fold_left (fun acc x -> min acc (rank x)) max_int ids in
          match (Sampler_bank.peer b i, Sampler_bank.rank b i) with
          | Some p, Some r -> rank (Node_id.to_int p) = best && r = best
          | None, None -> ids = []
          | _ -> false)
        (List.init slots Fun.id))

(* Feeding a batch is the same as feeding it in two pieces: update_sample
   draws no randomness, so same-seed instances stay comparable. *)
let prop_update_sample_batch_split =
  Check.prop ~name:"update_sample batches = sequential feeds" ~count:200
    ~print:(Print.triple Print.int (Print.list Print.int) Print.int)
    (Gen.triple (Gen.nat ~max:10_000)
       (Gen.list ~min_len:1 ~max_len:30 (Gen.nat ~max:100))
       (Gen.nat ~max:30))
    (fun (seed, ids, cut) ->
      let cut = cut mod (List.length ids + 1) in
      let all = Array.of_list (List.map (fun i -> Node_id.of_int (i + 1)) ids) in
      let whole = make_node seed in
      Basalt.update_sample whole all;
      let split = make_node seed in
      Basalt.update_sample split (Array.sub all 0 cut);
      Basalt.update_sample split
        (Array.sub all cut (Array.length all - cut));
      Basalt.view whole = Basalt.view split)

(* Eviction safety: a peer that sent us anything within the last [limit]
   rounds can never be evicted — its probe (if any) was cleared by that
   traffic, and any newer probe is younger than [limit].  Ops interleave
   silent protocol rounds with spontaneous traffic from a small peer
   pool; since every identifier ever fed was offered to every slot, the
   view only ever shrinks through eviction, so a recently-heard peer
   missing from the view is exactly an eviction-safety violation. *)
let prop_eviction_spares_recent_peers =
  let limit = 2 in
  let print_ops =
    Print.list (fun op -> if op = 0 then "round" else Printf.sprintf "hear(%d)" op)
  in
  Check.prop ~name:"eviction never evicts a peer heard within the limit"
    ~count:200
    ~print:(Print.pair Print.int print_ops)
    (Gen.pair (Gen.nat ~max:10_000)
       (Gen.list ~min_len:1 ~max_len:60 (Gen.nat ~max:6)))
    (fun (seed, ops) ->
      let send ~dst:_ _ = () in
      let t =
        Basalt.create
          ~config:(Config.make ~v:6 ~k:2 ~evict_after_rounds:limit ())
          ~id:(Node_id.of_int 0)
          ~bootstrap:(Array.init 6 (fun i -> Node_id.of_int (i + 1)))
          ~rng:(Basalt_prng.Rng.create ~seed)
          ~send ()
      in
      let last_heard = Hashtbl.create 8 in
      let ok = ref true in
      List.iter
        (fun op ->
          if op = 0 then begin
            let before = Basalt.view t in
            Basalt.on_round t;
            let after = Basalt.view t in
            let rounds = Basalt.rounds_executed t in
            Array.iter
              (fun p ->
                match Hashtbl.find_opt last_heard (Node_id.to_int p) with
                | Some heard when rounds - heard <= limit ->
                    if not (Array.exists (Node_id.equal p) after) then
                      ok := false
                | Some _ | None -> ())
              before
          end
          else begin
            let p = Node_id.of_int op in
            Basalt.on_message t ~from:p (Message.Push_id p);
            Hashtbl.replace last_heard op (Basalt.rounds_executed t)
          end)
        ops;
      !ok)

(* Differential rank oracle: a naive reference model of Alg. 1 that
   evaluates one rank per (slot, candidate) pair with no dedup, no
   candidate digests and no seen-cache — exactly the code the batched
   [Basalt.update_sample] replaced.  The model mirrors the node's PRNG
   usage ([create] splits the master stream and draws one seed per slot;
   each [sample_tick] reset draws one more), so a same-seeded node and
   model hold identical slot seeds at every step and must agree on every
   holder and every best rank, bit for bit. *)
module Rank_oracle = struct
  type slot = {
    mutable seed : Rank.seed;
    mutable holder : int option;
    mutable best : int;
  }

  type t = {
    slots : slot array;
    rng : Basalt_prng.Rng.t;
    backend : Rank.backend;
    self : int;
    mutable next_reset : int;
  }

  let create ~backend ~v ~self ~seed =
    let master = Basalt_prng.Rng.create ~seed in
    let rng = Basalt_prng.Rng.split master in
    let slots =
      Array.init v (fun _ ->
          { seed = Rank.fresh backend rng; holder = None; best = max_int })
    in
    { slots; rng; backend; self; next_reset = 0 }

  let offer t ids =
    Array.iter
      (fun id ->
        let id = Node_id.to_int id in
        if id <> t.self then
          Array.iter
            (fun s ->
              let r = Rank.rank s.seed id in
              if s.holder = None || r < s.best then begin
                s.holder <- Some id;
                s.best <- r
              end)
            t.slots)
      ids

  let tick t ~k =
    let snapshot =
      Array.of_list
        (List.filter_map
           (fun s -> Option.map Node_id.of_int s.holder)
           (Array.to_list t.slots))
    in
    for _ = 1 to k do
      let s = t.slots.(t.next_reset) in
      t.next_reset <- (t.next_reset + 1) mod Array.length t.slots;
      s.seed <- Rank.fresh t.backend t.rng;
      s.holder <- None;
      s.best <- max_int
    done;
    offer t snapshot

  let holders t = Array.map (fun s -> s.holder) t.slots
  let ranks t =
    Array.map (fun s -> if s.holder = None then None else Some s.best) t.slots
end

let oracle_backends =
  [
    ("cheap", Rank.Cheap);
    ("keyed-cheap", Rank.Keyed_cheap 0x2545F4914F6CDD1D);
    ( "siphash",
      Rank.Siphash (Basalt_hashing.Siphash.key_of_ints 0x0706050403020100L 0x0F0E0D0C0B0A0908L) );
    ("prefix-diverse", Rank.Prefix_diverse { prefix_of = (fun id -> id / 8) });
  ]

(* Each op is a candidate batch (possibly empty) optionally followed by a
   sample_tick: small identifier range forces duplicates within and
   across batches, id 0 is the node itself, and ticks re-seed slots so
   the batched path's seen-cache must discriminate stale generations. *)
let prop_update_sample_matches_oracle =
  let print_ops =
    Print.list (Print.pair (Print.list Print.int) Print.bool)
  in
  Check.prop ~name:"batched update_sample matches naive rank oracle"
    ~count:150
    ~print:(Print.pair Print.int print_ops)
    (Gen.pair (Gen.nat ~max:10_000)
       (Gen.list ~min_len:1 ~max_len:10
          (Gen.pair
             (Gen.list ~min_len:0 ~max_len:8 (Gen.nat ~max:12))
             Gen.bool)))
    (fun (seed, ops) ->
      let v = 6 and k = 2 in
      List.for_all
        (fun (_name, backend) ->
          let send ~dst:_ _ = () in
          let t =
            Basalt.create
              ~config:(Config.make ~v ~k ~backend ())
              ~id:(Node_id.of_int 0) ~bootstrap:[||]
              ~rng:(Basalt_prng.Rng.create ~seed)
              ~send ()
          in
          let m = Rank_oracle.create ~backend ~v ~self:0 ~seed in
          List.for_all
            (fun (ids, tick) ->
              let batch =
                Array.of_list (List.map Node_id.of_int ids)
              in
              Basalt.update_sample t batch;
              Rank_oracle.offer m batch;
              if tick then begin
                ignore (Basalt.sample_tick t);
                Rank_oracle.tick m ~k
              end;
              let holders =
                Array.map
                  (Option.map Node_id.to_int)
                  (Basalt.view_slots t)
              in
              holders = Rank_oracle.holders m
              && Basalt.slot_ranks t = Rank_oracle.ranks m)
            ops)
        oracle_backends)

(* exclude_self (the default) keeps the node's own identifier out of
   its view no matter how often it is offered. *)
let prop_view_excludes_self =
  Check.prop ~name:"view never contains self" ~count:200
    ~print:print_seed_ids seed_and_ids
    (fun (seed, ids) ->
      let t = make_node seed in
      (* id 0 is the node itself; feed it alongside everything else. *)
      let fed = Array.of_list (List.map Node_id.of_int (0 :: ids)) in
      Basalt.update_sample t fed;
      not (Array.exists (Node_id.equal (Node_id.of_int 0)) (Basalt.view t)))

let () =
  Alcotest.run "basalt"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick config_defaults;
          Alcotest.test_case "validation" `Quick config_validation;
          Alcotest.test_case "intervals" `Quick config_intervals;
          Alcotest.test_case "equilibrium" `Quick config_equilibrium;
        ] );
      ( "slot",
        [
          Alcotest.test_case "empty" `Quick slot_empty;
          Alcotest.test_case "offer fills" `Quick slot_offer_fills;
          Alcotest.test_case "keeps minimum" `Quick slot_keeps_minimum;
          Alcotest.test_case "rejects worse" `Quick slot_rejects_worse;
          Alcotest.test_case "reset" `Quick slot_reset;
          Alcotest.test_case "cached rank agrees" `Quick slot_cached_rank_agrees;
        ] );
      ( "basalt",
        [
          Alcotest.test_case "bootstrap fills view" `Quick
            basalt_bootstrap_fills_view;
          Alcotest.test_case "empty bootstrap" `Quick basalt_empty_bootstrap;
          Alcotest.test_case "excludes self" `Quick basalt_excludes_self;
          Alcotest.test_case "update_sample converges" `Quick
            basalt_update_sample_converges;
          Alcotest.test_case "select_peer member" `Quick
            basalt_select_peer_member;
          Alcotest.test_case "on_round sends" `Quick basalt_on_round_sends;
          Alcotest.test_case "pull answered" `Quick basalt_pull_answered;
          Alcotest.test_case "push includes sender" `Quick
            basalt_push_includes_sender;
          Alcotest.test_case "sample_tick emits" `Quick basalt_sample_tick_emits;
          Alcotest.test_case "sample_tick round robin" `Quick
            basalt_sample_tick_round_robin;
          Alcotest.test_case "sample_tick empty slots" `Quick
            basalt_sample_tick_empty_slots;
          Alcotest.test_case "sampler interface" `Quick basalt_sampler_interface;
          Alcotest.test_case "flood resistance" `Quick basalt_flood_resistance;
          Alcotest.test_case "least-used balances" `Quick
            basalt_least_used_balances;
          Alcotest.test_case "least-used empty view" `Quick
            basalt_least_used_empty;
          Alcotest.test_case "push payload ablation" `Quick
            basalt_push_payload_ablation;
          Alcotest.test_case "eviction validation" `Quick eviction_validation;
          Alcotest.test_case "eviction sheds silent peers" `Quick
            eviction_sheds_silent_peers;
          Alcotest.test_case "eviction spares responsive peers" `Quick
            eviction_spares_responsive_peers;
          Alcotest.test_case "eviction disabled by default" `Quick
            eviction_disabled_by_default;
          Alcotest.test_case "eviction order deterministic" `Quick
            eviction_order_is_deterministic;
          Alcotest.test_case "probe cleared on any traffic" `Quick
            probe_cleared_on_any_traffic;
          Alcotest.test_case "probe recorded before send" `Quick
            probe_recorded_before_send;
          Alcotest.test_case "eviction resets and re-offers" `Quick
            eviction_resets_slots_and_reoffers;
        ] );
      ( "sample_stream",
        [
          Alcotest.test_case "basics" `Quick stream_basics;
          Alcotest.test_case "eviction" `Quick stream_eviction;
          Alcotest.test_case "proportion" `Quick stream_proportion;
          Alcotest.test_case "iter order" `Quick stream_iter_order;
          Alcotest.test_case "draw" `Quick stream_draw;
          Alcotest.test_case "invalid" `Quick stream_invalid;
        ] );
      Check.suite "properties"
        [
          prop_view_subset_of_fed;
          prop_slot_argmin;
          prop_update_sample_batch_split;
          prop_update_sample_matches_oracle;
          prop_view_excludes_self;
          prop_eviction_spares_recent_peers;
          prop_stream_model;
        ];
    ]
