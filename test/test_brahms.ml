(* Tests for basalt.brahms: config, view reconstruction, samplers,
   multi-shot extension, blocking. *)

open Basalt_brahms
module Node_id = Basalt_proto.Node_id
module Message = Basalt_proto.Message
module View_ops = Basalt_proto.View_ops

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let id = Node_id.of_int
let rng () = Basalt_prng.Rng.create ~seed:99

(* --- Config --- *)

let config_defaults () =
  let c = Brahms_config.default in
  check_int "l" 160 c.Brahms_config.l;
  Alcotest.(check (float 1e-9)) "alpha" (1.0 /. 3.0) c.Brahms_config.alpha;
  check_bool "blocking off" true (c.Brahms_config.push_limit = None);
  check_int "k = l/2" 80 c.Brahms_config.k

let config_validation () =
  let expect msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  expect "Brahms_config.make: l must be positive" (fun () ->
      ignore (Brahms_config.make ~l:0 ()));
  expect "Brahms_config.make: weights must sum to 1" (fun () ->
      ignore (Brahms_config.make ~alpha:0.5 ~beta:0.5 ~gamma:0.5 ()));
  expect "Brahms_config.make: negative weight" (fun () ->
      ignore (Brahms_config.make ~alpha:(-0.5) ~beta:1.0 ~gamma:0.5 ()));
  expect "Brahms_config.make: k must be in [1, l]" (fun () ->
      ignore (Brahms_config.make ~l:4 ~k:5 ()))

let config_refresh () =
  let c = Brahms_config.make ~l:100 ~k:25 ~rho:0.5 () in
  Alcotest.(check (float 1e-9)) "k/rho" 50.0 (Brahms_config.refresh_interval c)

(* --- Brahms node --- *)

let capture () =
  let sent = ref [] in
  let send ~dst msg = sent := (dst, msg) :: !sent in
  (sent, send)

let make ?(l = 8) ?(k = 2) ?push_limit ?(bootstrap = Array.init 6 (fun i -> id (i + 1)))
    () =
  let sent, send = capture () in
  let t =
    Brahms.create
      ~config:(Brahms_config.make ~l ~k ?push_limit ())
      ~id:(id 0) ~bootstrap ~rng:(rng ()) ~send ()
  in
  (t, sent)

let brahms_bootstrap () =
  let t, _ = make () in
  check_bool "view from bootstrap" true (Array.length (Brahms.view t) > 0);
  Array.iter
    (fun p ->
      check_bool "no self" false (Node_id.equal p (id 0));
      check_bool "bootstrap member" true (Node_id.to_int p <= 6))
    (Brahms.view t)

let brahms_round_sends_push_id_and_pull () =
  let t, sent = make () in
  Brahms.on_round t;
  let kinds = List.map (fun (_, m) -> Message.kind m) !sent in
  check_int "two messages" 2 (List.length kinds);
  check_bool "push-id" true (List.mem "push-id" kinds);
  check_bool "pull" true (List.mem "pull" kinds);
  (* the push-id must carry the node's own identifier *)
  List.iter
    (fun (_, m) ->
      match m with
      | Message.Push_id p -> check_int "own id pushed" 0 (Node_id.to_int p)
      | _ -> ())
    !sent

let brahms_pull_answered_with_view () =
  let t, sent = make () in
  Brahms.on_message t ~from:(id 42) Message.Pull_request;
  match !sent with
  | [ (dst, Message.Pull_reply view) ] ->
      check_int "to requester" 42 (Node_id.to_int dst);
      check_int "carries current view" (Array.length (Brahms.view t))
        (Array.length view)
  | _ -> Alcotest.fail "expected pull reply"

let brahms_view_update_requires_both () =
  let t, _ = make () in
  let before = Brahms.view t in
  (* Only a pull reply: no rebuild. *)
  Brahms.on_message t ~from:(id 2) (Message.Pull_reply [| id 30; id 31 |]);
  Brahms.on_round t;
  Alcotest.(check (array int))
    "pull alone keeps view"
    (Array.map Node_id.to_int before)
    (Array.map Node_id.to_int (Brahms.view t));
  (* Now both channels: rebuild happens. *)
  Brahms.on_message t ~from:(id 30) (Message.Push_id (id 30));
  Brahms.on_message t ~from:(id 2) (Message.Pull_reply [| id 31; id 32 |]);
  Brahms.on_round t;
  let after = Brahms.view t in
  check_bool "view rebuilt from receipts" true
    (View_ops.contains after (id 30)
    || View_ops.contains after (id 31)
    || View_ops.contains after (id 32))

let brahms_push_only_no_update () =
  let t, _ = make () in
  let before = Brahms.view t in
  Brahms.on_message t ~from:(id 50) (Message.Push_id (id 50));
  Brahms.on_round t;
  Alcotest.(check (array int))
    "push alone keeps view"
    (Array.map Node_id.to_int before)
    (Array.map Node_id.to_int (Brahms.view t))

let brahms_blocking () =
  let t, _ = make ~push_limit:1 () in
  let before = Brahms.view t in
  (* Two pushes exceed the limit of 1: the round's update is vetoed. *)
  Brahms.on_message t ~from:(id 30) (Message.Push_id (id 30));
  Brahms.on_message t ~from:(id 31) (Message.Push_id (id 31));
  Brahms.on_message t ~from:(id 2) (Message.Pull_reply [| id 32 |]);
  Brahms.on_round t;
  check_int "blocked once" 1 (Brahms.blocked_rounds t);
  Alcotest.(check (array int))
    "view unchanged when blocked"
    (Array.map Node_id.to_int before)
    (Array.map Node_id.to_int (Brahms.view t))

let brahms_samplers_minwise () =
  let t, _ = make ~l:16 () in
  (* Feed a batch of ids through a push: samplers must absorb them. *)
  Brahms.on_message t ~from:(id 7) (Message.Push_id (id 7));
  let outputs = Brahms.sampler_outputs t in
  check_bool "samplers filled" true (Array.length outputs > 0);
  (* Stubbornness: replaying the same messages changes nothing. *)
  let before = Array.map Node_id.to_int outputs in
  Brahms.on_message t ~from:(id 7) (Message.Push_id (id 7));
  Alcotest.(check (array int))
    "stubborn" before
    (Array.map Node_id.to_int (Brahms.sampler_outputs t))

let brahms_multi_id_push_is_single () =
  let t, _ = make ~l:64 () in
  (* A forged multi-id push must contribute only the sender, per Brahms
     message syntax. *)
  Brahms.on_message t ~from:(id 70) (Message.Push (Array.init 50 (fun i -> id (100 + i))));
  let outputs = Brahms.sampler_outputs t in
  Array.iter
    (fun p ->
      check_bool "forged payload ignored" false (Node_id.to_int p >= 100))
    outputs

let brahms_sample_tick () =
  let t, _ = make ~l:8 ~k:3 () in
  let s = Brahms.sample_tick t in
  check_int "k samples" 3 (List.length s);
  (* After resetting all samplers in circles they keep producing as long
     as traffic refills them; with no traffic they dry out. *)
  let rec drain i acc =
    if i = 0 then acc else drain (i - 1) (acc + List.length (Brahms.sample_tick t))
  in
  let produced = drain 3 0 in
  check_bool "resets drain without refill" true (produced <= 8)

let brahms_message_budget_knobs () =
  let sent = ref [] in
  let send ~dst:_ msg = sent := msg :: !sent in
  let t =
    Brahms.create
      ~config:(Brahms_config.make ~l:8 ~pushes_per_round:3 ~pulls_per_round:2 ())
      ~id:(id 0)
      ~bootstrap:(Array.init 6 (fun i -> id (i + 1)))
      ~rng:(rng ()) ~send ()
  in
  Brahms.on_round t;
  let count kind =
    List.length (List.filter (fun m -> Message.kind m = kind) !sent)
  in
  check_int "three pushes" 3 (count "push-id");
  check_int "two pulls" 2 (count "pull");
  Alcotest.check_raises "negative counts"
    (Invalid_argument "Brahms_config.make: negative per-round message count")
    (fun () -> ignore (Brahms_config.make ~pushes_per_round:(-1) ()))

let brahms_sampler_interface () =
  let maker = Brahms.sampler ~config:(Brahms_config.make ~l:8 ()) () in
  let count = ref 0 in
  let s =
    maker ~id:(id 0)
      ~bootstrap:(Array.init 4 (fun i -> id (i + 1)))
      ~rng:(rng ())
      ~send:(fun ~dst:_ _ -> incr count)
  in
  Alcotest.(check string) "protocol" "brahms" s.Basalt_proto.Rps.protocol;
  s.Basalt_proto.Rps.on_round ();
  check_int "sends per round" 2 !count

module Check = Basalt_check.Check
module Gen = Check.Gen
module Print = Check.Print

let prop_view_never_contains_self =
  Check.prop ~name:"brahms view never contains self" ~count:100
    ~print:Print.int (Gen.nat ~max:10_000)
    (fun seed ->
      let _, send = ((), fun ~dst:_ _ -> ()) in
      let t =
        Brahms.create
          ~config:(Brahms_config.make ~l:8 ())
          ~id:(Node_id.of_int 0)
          ~bootstrap:(Array.init 6 (fun i -> Node_id.of_int i))
          ~rng:(Basalt_prng.Rng.create ~seed)
          ~send ()
      in
      Brahms.on_message t ~from:(Node_id.of_int 1) (Message.Push_id (Node_id.of_int 1));
      Brahms.on_message t ~from:(Node_id.of_int 2)
        (Message.Pull_reply [| Node_id.of_int 0; Node_id.of_int 3 |]);
      Brahms.on_round t;
      not
        (Array.exists
           (fun p -> Node_id.to_int p = 0)
           (Brahms.sampler_outputs t)))

(* Min-wise samplers are order-oblivious: two same-seed instances fed
   the same identifier multiset in different orders expose identical
   sampler outputs.  [Push_id] handling draws no randomness, so the
   instances stay stream-aligned. *)
let prop_samplers_permutation_invariant =
  Check.prop ~name:"sampler outputs are feed-order invariant" ~count:150
    ~print:(Print.pair Print.int (Print.list Print.int))
    (Gen.pair (Gen.nat ~max:10_000)
       (Gen.list ~min_len:1 ~max_len:40 (Gen.int_range 1 200)))
    (fun (seed, ids) ->
      let make () =
        Brahms.create
          ~config:(Brahms_config.make ~l:8 ())
          ~id:(Node_id.of_int 0) ~bootstrap:[||]
          ~rng:(Basalt_prng.Rng.create ~seed)
          ~send:(fun ~dst:_ _ -> ())
          ()
      in
      let feed t order =
        List.iter
          (fun i ->
            Brahms.on_message t ~from:(Node_id.of_int i)
              (Message.Push_id (Node_id.of_int i)))
          order
      in
      let a = make () and b = make () in
      feed a ids;
      feed b (List.rev ids);
      Brahms.sampler_outputs a = Brahms.sampler_outputs b)

(* Differential sampler oracle: a naive reference model of Brahms's
   sampler vector that ranks every (sampler, identifier) pair with
   [Rank.rank], in feed order, one identifier at a time — the
   record-per-sampler code the flat sampler bank replaced.  It mirrors
   the node's PRNG usage: [create] splits the master stream, draws one
   seed per sampler, then draws the initial view from the same stream;
   each [sample_tick] reset draws one more seed.  Pushes and pull
   replies draw nothing, so a same-seeded node and model hold identical
   seeds at every step and must agree on every sampler output, every
   emitted sample, and the naive [brahms.rank_evals] count (l per
   non-self identifier fed). *)
module Rank = Basalt_hashing.Rank
module Obs = Basalt_obs.Obs

module Sampler_oracle = struct
  type sampler = {
    mutable seed : Rank.seed;
    mutable holder : int option;
    mutable best : int;
  }

  type t = {
    samplers : sampler array;
    rng : Basalt_prng.Rng.t;
    backend : Rank.backend;
    self : int;
    mutable next_reset : int;
    mutable evals : int;
  }

  let offer t ids =
    Array.iter
      (fun id ->
        let id = Node_id.to_int id in
        if id <> t.self then
          Array.iter
            (fun s ->
              t.evals <- t.evals + 1;
              let r = Rank.rank s.seed id in
              if s.holder = None || r < s.best then begin
                s.holder <- Some id;
                s.best <- r
              end)
            t.samplers)
      ids

  let create ~backend ~l ~self ~seed ~bootstrap =
    let master = Basalt_prng.Rng.create ~seed in
    let rng = Basalt_prng.Rng.split master in
    let samplers =
      Array.init l (fun _ ->
          { seed = Rank.fresh backend rng; holder = None; best = max_int })
    in
    let others =
      Array.of_list
        (List.filter
           (fun p -> Node_id.to_int p <> self)
           (Array.to_list bootstrap))
    in
    ignore (View_ops.random_subset rng ~k:l others);
    let t = { samplers; rng; backend; self; next_reset = 0; evals = 0 } in
    offer t bootstrap;
    t

  let tick t ~k =
    let samples = ref [] in
    for _ = 1 to k do
      let s = t.samplers.(t.next_reset) in
      t.next_reset <- (t.next_reset + 1) mod Array.length t.samplers;
      Option.iter (fun p -> samples := p :: !samples) s.holder;
      s.seed <- Rank.fresh t.backend t.rng;
      s.holder <- None;
      s.best <- max_int
    done;
    List.rev !samples

  let outputs t =
    Array.of_list
      (List.filter_map (fun s -> s.holder) (Array.to_list t.samplers))
end

let oracle_backends =
  [
    ("cheap", Rank.Cheap);
    ("keyed-cheap", Rank.Keyed_cheap 0x2545F4914F6CDD1D);
    ( "siphash",
      Rank.Siphash
        (Basalt_hashing.Siphash.key_of_ints 0x0706050403020100L
           0x0F0E0D0C0B0A0908L) );
    ("prefix-diverse", Rank.Prefix_diverse { prefix_of = (fun id -> id / 8) });
  ]

type oracle_op =
  | Push_id of int  (* Push_id carrying the id, from that id *)
  | Push of int * int list  (* multi-id push: only the sender counts *)
  | Reply of int * int list  (* pull reply, possibly empty *)
  | Tick

let print_oracle_op = function
  | Push_id i -> Printf.sprintf "push_id(%d)" i
  | Push (f, l) -> Printf.sprintf "push(%d,%s)" f (Print.list Print.int l)
  | Reply (f, l) -> Printf.sprintf "reply(%d,%s)" f (Print.list Print.int l)
  | Tick -> "tick"

(* Identifiers range over 0..12 with 0 the node itself: duplicates
   within and across batches and self ids are common. *)
let gen_oracle_op =
  let small = Gen.nat ~max:12 in
  let batch = Gen.list ~min_len:0 ~max_len:8 small in
  Gen.map
    (fun (kind, (a, l)) ->
      match kind mod 4 with
      | 0 -> Push_id a
      | 1 -> Push (a, l)
      | 2 -> Reply (a, l)
      | _ -> Tick)
    (Gen.pair (Gen.nat ~max:3) (Gen.pair small batch))

let prop_samplers_match_oracle =
  Check.prop ~name:"sampler bank matches naive rank oracle" ~count:150
    ~print:(Print.pair Print.int (Print.list print_oracle_op))
    (Gen.pair (Gen.nat ~max:10_000) (Gen.list ~min_len:1 ~max_len:12 gen_oracle_op))
    (fun (seed, ops) ->
      let l = 6 and k = 2 in
      let ids = List.map Node_id.of_int in
      let bootstrap = Array.of_list (ids [ 0; 3; 5; 3 ]) in
      List.for_all
        (fun (_name, backend) ->
          let obs = Obs.create () in
          let t =
            Brahms.create
              ~config:(Brahms_config.make ~l ~k ~backend ())
              ~obs ~id:(Node_id.of_int 0) ~bootstrap
              ~rng:(Basalt_prng.Rng.create ~seed)
              ~send:(fun ~dst:_ _ -> ())
              ()
          in
          let m = Sampler_oracle.create ~backend ~l ~self:0 ~seed ~bootstrap in
          let agree () =
            Array.map Node_id.to_int (Brahms.sampler_outputs t)
            = Sampler_oracle.outputs m
            && Obs.Counter.value (Obs.counter obs "brahms.rank_evals") = m.evals
          in
          agree ()
          && List.for_all
               (fun op ->
                 let same_samples =
                   match op with
                   | Push_id i ->
                       let p = Node_id.of_int i in
                       Brahms.on_message t ~from:p (Message.Push_id p);
                       Sampler_oracle.offer m [| p |];
                       true
                   | Push (f, l) ->
                       let from = Node_id.of_int f in
                       Brahms.on_message t ~from (Message.Push (Array.of_list (ids l)));
                       Sampler_oracle.offer m [| from |];
                       true
                   | Reply (f, l) ->
                       let batch = Array.of_list (ids l) in
                       Brahms.on_message t ~from:(Node_id.of_int f)
                         (Message.Pull_reply batch);
                       Sampler_oracle.offer m batch;
                       true
                   | Tick ->
                       List.map Node_id.to_int (Brahms.sample_tick t)
                       = Sampler_oracle.tick m ~k
                 in
                 same_samples && agree ())
               ops)
        oracle_backends)

let () =
  Alcotest.run "brahms"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick config_defaults;
          Alcotest.test_case "validation" `Quick config_validation;
          Alcotest.test_case "refresh" `Quick config_refresh;
        ] );
      ( "brahms",
        [
          Alcotest.test_case "bootstrap" `Quick brahms_bootstrap;
          Alcotest.test_case "round messages" `Quick
            brahms_round_sends_push_id_and_pull;
          Alcotest.test_case "pull answered" `Quick
            brahms_pull_answered_with_view;
          Alcotest.test_case "update needs push AND pull" `Quick
            brahms_view_update_requires_both;
          Alcotest.test_case "push alone keeps view" `Quick
            brahms_push_only_no_update;
          Alcotest.test_case "blocking" `Quick brahms_blocking;
          Alcotest.test_case "samplers min-wise" `Quick brahms_samplers_minwise;
          Alcotest.test_case "multi-id push parsed as one" `Quick
            brahms_multi_id_push_is_single;
          Alcotest.test_case "sample_tick" `Quick brahms_sample_tick;
          Alcotest.test_case "message budget knobs" `Quick
            brahms_message_budget_knobs;
          Alcotest.test_case "sampler interface" `Quick brahms_sampler_interface;
        ] );
      Check.suite "properties"
        [
          prop_view_never_contains_self;
          prop_samplers_permutation_invariant;
          prop_samplers_match_oracle;
        ];
    ]
