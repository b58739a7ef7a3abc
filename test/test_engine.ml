(* Tests for basalt.engine: event queue, link models, DES engine. *)

open Basalt_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* --- Event_queue --- *)

let queue_order () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:3.0 "c";
  Event_queue.push q ~time:1.0 "a";
  Event_queue.push q ~time:2.0 "b";
  Alcotest.(check (option (pair (float 0.0) string)))
    "first" (Some (1.0, "a")) (Event_queue.pop q);
  Alcotest.(check (option (pair (float 0.0) string)))
    "second" (Some (2.0, "b")) (Event_queue.pop q);
  Alcotest.(check (option (pair (float 0.0) string)))
    "third" (Some (3.0, "c")) (Event_queue.pop q);
  check_bool "drained" true (Event_queue.pop q = None)

let queue_fifo_ties () =
  let q = Event_queue.create () in
  List.iter (fun s -> Event_queue.push q ~time:1.0 s) [ "x"; "y"; "z" ];
  let order =
    List.init 3 (fun _ ->
        match Event_queue.pop q with Some (_, s) -> s | None -> "?")
  in
  Alcotest.(check (list string)) "insertion order on ties" [ "x"; "y"; "z" ] order

let queue_size () =
  let q = Event_queue.create () in
  check_int "empty" 0 (Event_queue.size q);
  check_bool "is_empty" true (Event_queue.is_empty q);
  Event_queue.push q ~time:1.0 0;
  Event_queue.push q ~time:2.0 1;
  check_int "two" 2 (Event_queue.size q);
  ignore (Event_queue.pop q);
  check_int "one" 1 (Event_queue.size q)

let queue_peek () =
  let q = Event_queue.create () in
  check_bool "peek empty" true (Event_queue.peek_time q = None);
  Event_queue.push q ~time:5.0 ();
  Event_queue.push q ~time:2.0 ();
  Alcotest.(check (option (float 0.0))) "peek min" (Some 2.0)
    (Event_queue.peek_time q);
  check_int "peek does not remove" 2 (Event_queue.size q)

(* Delivered events must not stay reachable from the queue: a popped
   message (a sampler view can carry hundreds of ids) should be garbage
   as soon as its handler is done with it.  Push and pop happen in a
   separate frame so no stack slot of the test keeps a block alive. *)
let[@inline never] push_and_drain q weak =
  for i = 0 to Weak.length weak - 1 do
    let block = Array.make 100 i in
    Weak.set weak i (Some block);
    Event_queue.push q ~time:(float_of_int ((7 * i) mod 5)) block
  done;
  while not (Event_queue.is_empty q) do
    ignore (Event_queue.pop q)
  done

let queue_releases_popped () =
  let q = Event_queue.create () in
  let weak = Weak.create 20 in
  push_and_drain q weak;
  Gc.full_major ();
  for i = 0 to Weak.length weak - 1 do
    check_bool (Printf.sprintf "block %d collected" i) false (Weak.check weak i)
  done;
  check_int "queue still usable" 0 (Event_queue.size q)

let queue_interleaved () =
  let q = Event_queue.create () in
  for i = 0 to 99 do
    Event_queue.push q ~time:(float_of_int (99 - i)) (99 - i)
  done;
  let prev = ref (-1.0) in
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (t, v) ->
        check_bool "non-decreasing" true (t >= !prev);
        check_int "payload matches time" v (int_of_float t);
        prev := t;
        drain ()
  in
  drain ()

module Check = Basalt_check.Check
module Gen = Check.Gen
module Gens = Check.Gens
module Print = Check.Print

let prop_queue_sorted =
  Check.prop ~name:"pops are sorted by time" ~count:200
    ~print:(Print.list Print.float)
    (Gen.list ~max_len:60 (Gen.float_range 0.0 1000.0))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q ~time:t ()) times;
      let rec drain prev =
        match Event_queue.pop q with
        | None -> true
        | Some (t, ()) -> t >= prev && drain t
      in
      drain neg_infinity)

(* Model-based test: interleave pushes and pops, comparing against a
   sorted-list reference implementation (stable on ties). *)
let prop_queue_model =
  Check.prop ~name:"queue matches sorted-list reference" ~count:300
    ~print:(Print.list (Print.pair Print.bool Print.int))
    (Gen.list ~max_len:60 (Gen.pair Gen.bool (Gen.nat ~max:100)))
    (fun ops ->
      let q = Event_queue.create () in
      (* reference: list of (time, seq, value), kept sorted *)
      let reference = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun (is_push, t) ->
          if is_push then begin
            let time = float_of_int t in
            Event_queue.push q ~time !seq;
            reference :=
              List.merge
                (fun (t1, s1, _) (t2, s2, _) ->
                  if t1 <> t2 then Float.compare t1 t2 else Int.compare s1 s2)
                !reference
                [ (time, !seq, !seq) ];
            incr seq
          end
          else begin
            match (Event_queue.pop q, !reference) with
            | None, [] -> ()
            | Some (t, v), (rt, _, rv) :: rest ->
                if t <> rt || v <> rv then ok := false;
                reference := rest
            | Some _, [] | None, _ :: _ -> ok := false
          end)
        ops;
      (* drain both *)
      let rec drain () =
        match (Event_queue.pop q, !reference) with
        | None, [] -> ()
        | Some (t, v), (rt, _, rv) :: rest ->
            if t <> rt || v <> rv then ok := false;
            reference := rest;
            drain ()
        | Some _, [] | None, _ :: _ -> ok := false
      in
      drain ();
      !ok)

(* --- Link models --- *)

let latency_models () =
  let rng = Basalt_prng.Rng.create ~seed:1 in
  check_float "zero" 0.0 (Link.Latency.sample Link.Latency.Zero rng);
  check_float "constant" 0.25 (Link.Latency.sample (Link.Latency.Constant 0.25) rng);
  for _ = 1 to 100 do
    let d = Link.Latency.sample (Link.Latency.Uniform { lo = 0.1; hi = 0.2 }) rng in
    check_bool "uniform in range" true (d >= 0.1 && d <= 0.2)
  done

let loss_models () =
  let rng = Basalt_prng.Rng.create ~seed:2 in
  let none_st = Link.Loss.initial Link.Loss.None in
  let all = Link.Loss.Bernoulli 1.0 in
  let all_st = Link.Loss.initial all in
  for _ = 1 to 50 do
    check_bool "none never drops" false (Link.Loss.drops Link.Loss.None none_st rng);
    check_bool "p=1 always drops" true (Link.Loss.drops all all_st rng)
  done

let loss_gilbert_elliott () =
  let rng = Basalt_prng.Rng.create ~seed:3 in
  (* Degenerate chains pin the behaviour exactly: a chain stuck in the
     good state with good=0 never drops; stuck in bad with bad=1 always
     drops once it transitions (p_gb=1 moves there on the first step). *)
  let stuck_good =
    Link.Loss.Gilbert_elliott { p_gb = 0.0; p_bg = 0.0; good = 0.0; bad = 1.0 }
  in
  let st = Link.Loss.initial stuck_good in
  for _ = 1 to 50 do
    check_bool "stuck-good never drops" false
      (Link.Loss.drops stuck_good st rng)
  done;
  let stuck_bad =
    Link.Loss.Gilbert_elliott { p_gb = 1.0; p_bg = 0.0; good = 0.0; bad = 1.0 }
  in
  let st = Link.Loss.initial stuck_bad in
  for _ = 1 to 50 do
    check_bool "stuck-bad always drops" true
      (Link.Loss.drops stuck_bad st rng)
  done;
  (* Stationary loss of a balanced chain: pi_bad = p_gb/(p_gb+p_bg). *)
  let ge =
    Link.Loss.Gilbert_elliott
      { p_gb = 0.1; p_bg = 0.3; good = 0.0; bad = 0.8 }
  in
  check_float "mean loss" (0.1 /. 0.4 *. 0.8) (Link.Loss.mean_loss ge);
  let st = Link.Loss.initial ge in
  let n = 20_000 in
  let drops = ref 0 in
  for _ = 1 to n do
    if Link.Loss.drops ge st rng then incr drops
  done;
  let observed = float_of_int !drops /. float_of_int n in
  check_bool "empirical loss near stationary" true
    (Float.abs (observed -. Link.Loss.mean_loss ge) < 0.03)

(* --- Engine --- *)

let fresh_engine ?latency ?loss n : string Engine.t =
  let rng = Basalt_prng.Rng.create ~seed:7 in
  Engine.create ?latency ?loss ~rng ~n ()

let engine_delivery () =
  let e = fresh_engine 2 in
  let received = ref [] in
  Engine.register e 1 (fun ~from msg -> received := (from, msg) :: !received);
  Engine.send e ~src:0 ~dst:1 "hello";
  Engine.run_until e 1.0;
  Alcotest.(check (list (pair int string)))
    "delivered" [ (0, "hello") ] !received

let engine_unregistered_ok () =
  (* A message to a node with no handler is dropped on arrival: it is
     NOT counted as delivered (it never reached a handler) but shows up
     in the distinct [ignored] statistic. *)
  let e = fresh_engine 2 in
  Engine.send e ~src:0 ~dst:1 "void";
  Engine.run_until e 1.0;
  let s = Engine.stats e in
  check_int "not delivered" 0 s.Engine.delivered;
  check_int "counted ignored" 1 s.Engine.ignored;
  check_int "not dropped (it did arrive)" 0 s.Engine.dropped

let engine_out_of_range_register () =
  let e = fresh_engine 2 in
  Alcotest.check_raises "register out of range"
    (Invalid_argument "Engine.register: node out of range") (fun () ->
      Engine.register e 5 (fun ~from:_ _ -> ()))

let engine_timer_order () =
  let e = fresh_engine 1 in
  let log = ref [] in
  Engine.schedule e ~delay:2.0 (fun () -> log := "b" :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log);
  Engine.run_until e 3.0;
  Alcotest.(check (list string)) "timer order" [ "b"; "a" ] !log

let engine_negative_delay () =
  let e = fresh_engine 1 in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~delay:(-1.0) ignore)

let engine_every_count () =
  let e = fresh_engine 1 in
  let count = ref 0 in
  Engine.every e ~interval:1.0 (fun () -> incr count);
  Engine.run_until e 10.5;
  check_int "fires once per interval" 10 !count;
  (* Events beyond the horizon stay queued: advancing further fires more. *)
  Engine.run_until e 12.5;
  check_int "resumes across horizons" 12 !count

let engine_every_phase () =
  let e = fresh_engine 1 in
  let first = ref Float.nan in
  Engine.every e ~phase:0.25 ~interval:1.0 (fun () ->
      if Float.is_nan !first then first := Engine.now e);
  Engine.run_until e 2.0;
  check_float "first firing at phase" 0.25 !first

let engine_every_invalid () =
  let e = fresh_engine 1 in
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Engine.every: interval must be > 0") (fun () ->
      Engine.every e ~interval:0.0 ignore)

let engine_clock_advances () =
  let e = fresh_engine 1 in
  check_float "starts at 0" 0.0 (Engine.now e);
  Engine.run_until e 5.0;
  check_float "reaches horizon" 5.0 (Engine.now e)

let engine_message_before_next_round () =
  (* A message sent during a round-t timer must be delivered before a
     round t+1 timer (the zero-latency epsilon guarantee). *)
  let e = fresh_engine 2 in
  let log = ref [] in
  Engine.register e 1 (fun ~from:_ _ -> log := "deliver" :: !log);
  Engine.every e ~phase:1.0 ~interval:1.0 (fun () ->
      log := "round" :: !log;
      Engine.send e ~src:0 ~dst:1 "m");
  Engine.run_until e 2.5;
  Alcotest.(check (list string))
    "delivery interleaves rounds"
    [ "deliver"; "round"; "deliver"; "round" ]
    !log

let engine_step () =
  let e = fresh_engine 1 in
  check_bool "no events" false (Engine.step e);
  Engine.schedule e ~delay:1.0 ignore;
  check_bool "one event" true (Engine.step e);
  check_bool "drained" false (Engine.step e)

let engine_stats () =
  let e = fresh_engine 2 in
  Engine.register e 1 (fun ~from:_ _ -> ());
  Engine.send e ~src:0 ~dst:1 "x";
  Engine.send e ~src:0 ~dst:1 "y";
  Engine.schedule e ~delay:0.5 ignore;
  Engine.run_until e 1.0;
  let s = Engine.stats e in
  check_int "sent" 2 s.Engine.sent;
  check_int "delivered" 2 s.Engine.delivered;
  check_int "dropped" 0 s.Engine.dropped;
  check_int "ignored" 0 s.Engine.ignored;
  check_int "events = deliveries + timers" 3 s.Engine.events

let engine_loss () =
  let e = fresh_engine ~loss:(Link.Loss.Bernoulli 1.0) 2 in
  Engine.register e 1 (fun ~from:_ _ -> Alcotest.fail "should be dropped");
  for _ = 1 to 10 do
    Engine.send e ~src:0 ~dst:1 "x"
  done;
  Engine.run_until e 1.0;
  let s = Engine.stats e in
  check_int "all dropped" 10 s.Engine.dropped;
  check_int "none delivered" 0 s.Engine.delivered

let engine_latency () =
  let e = fresh_engine ~latency:(Link.Latency.Constant 2.0) 2 in
  let arrival = ref Float.nan in
  Engine.register e 1 (fun ~from:_ _ -> arrival := Engine.now e);
  Engine.send e ~src:0 ~dst:1 "x";
  Engine.run_until e 1.0;
  check_bool "not yet delivered" true (Float.is_nan !arrival);
  Engine.run_until e 3.0;
  check_bool "delivered after latency" true (!arrival >= 2.0 && !arrival < 2.1)

let engine_n () =
  let e = fresh_engine 5 in
  check_int "n" 5 (Engine.n e)

(* --- fault plans --- *)

let fresh_faulty ?latency ?loss ~fault n : string Engine.t =
  let rng = Basalt_prng.Rng.create ~seed:7 in
  Engine.create ?latency ?loss ~fault ~rng ~n ()

let fault_none_is_legacy () =
  (* [Fault.none] must be indistinguishable from no plan at all, down to
     PRNG consumption: same seed, same jittered delivery times. *)
  let run fault =
    let rng = Basalt_prng.Rng.create ~seed:11 in
    let e : string Engine.t =
      Engine.create
        ~latency:(Link.Latency.Uniform { lo = 0.0; hi = 0.5 })
        ?fault ~rng ~n:2 ()
    in
    let times = ref [] in
    Engine.register e 1 (fun ~from:_ _ -> times := Engine.now e :: !times);
    for _ = 1 to 20 do
      Engine.send e ~src:0 ~dst:1 "x"
    done;
    Engine.run_until e 5.0;
    !times
  in
  Alcotest.(check (list (float 0.0)))
    "identical delivery times" (run None)
    (run (Some Fault.none))

let fault_partition () =
  let fault =
    Fault.make
      ~partitions:
        [ Fault.partition ~from_time:1.0 ~until_time:2.0 (fun i -> i = 0) ]
      ()
  in
  let e = fresh_faulty ~fault 2 in
  let got = ref 0 in
  Engine.register e 1 (fun ~from:_ _ -> incr got);
  (* Before, during and after the cut. *)
  Engine.schedule e ~delay:0.5 (fun () -> Engine.send e ~src:0 ~dst:1 "a");
  Engine.schedule e ~delay:1.5 (fun () -> Engine.send e ~src:0 ~dst:1 "b");
  Engine.schedule e ~delay:2.5 (fun () -> Engine.send e ~src:0 ~dst:1 "c");
  Engine.run_until e 5.0;
  let s = Engine.stats e in
  check_int "two crossed outside the window" 2 !got;
  check_int "one partition drop" 1 s.Engine.partition_drops;
  check_int "dropped includes the partition drop" 1 s.Engine.dropped

let fault_partition_same_side () =
  (* Nodes on the same side of the cut keep talking during the window. *)
  let fault =
    Fault.make
      ~partitions:
        [ Fault.partition ~from_time:0.0 ~until_time:10.0 (fun i -> i < 2) ]
      ()
  in
  let e = fresh_faulty ~fault 4 in
  let got = ref 0 in
  Engine.register e 1 (fun ~from:_ _ -> incr got);
  Engine.register e 3 (fun ~from:_ _ -> incr got);
  Engine.schedule e ~delay:1.0 (fun () ->
      Engine.send e ~src:0 ~dst:1 "same side";
      Engine.send e ~src:2 ~dst:3 "same side";
      Engine.send e ~src:0 ~dst:3 "across");
  Engine.run_until e 5.0;
  check_int "same-side delivered" 2 !got;
  check_int "cross-cut dropped" 1 (Engine.stats e).Engine.partition_drops

let fault_outage () =
  let fault =
    Fault.make ~outages:[ Fault.outage ~node:1 ~from_time:1.0 ~until_time:2.0 ] ()
  in
  let e = fresh_faulty ~fault 3 in
  let got = ref 0 in
  Engine.register e 1 (fun ~from:_ _ -> incr got);
  Engine.register e 2 (fun ~from:_ _ -> incr got);
  Engine.schedule e ~delay:1.5 (fun () ->
      Engine.send e ~src:0 ~dst:1 "to the downed node";
      Engine.send e ~src:1 ~dst:2 "from the downed node";
      Engine.send e ~src:0 ~dst:2 "bystanders");
  Engine.schedule e ~delay:2.5 (fun () ->
      Engine.send e ~src:0 ~dst:1 "after restart");
  Engine.run_until e 5.0;
  let s = Engine.stats e in
  check_int "bystander + post-restart delivered" 2 !got;
  check_int "both directions silenced" 2 s.Engine.partition_drops

let fault_duplication () =
  let fault = Fault.make ~base:(Fault.link ~dup:1.0 ()) () in
  let e = fresh_faulty ~fault 2 in
  let got = ref 0 in
  Engine.register e 1 (fun ~from:_ _ -> incr got);
  for _ = 1 to 10 do
    Engine.send e ~src:0 ~dst:1 "x"
  done;
  Engine.run_until e 5.0;
  let s = Engine.stats e in
  check_int "sent" 10 s.Engine.sent;
  check_int "every message duplicated" 10 s.Engine.dup;
  check_int "delivered twice each" 20 s.Engine.delivered;
  check_int "handler saw every copy" 20 !got

let fault_reorder () =
  (* With certain reordering over a window much wider than the base
     latency, consecutive sends overtake each other. *)
  let fault =
    Fault.make ~base:(Fault.link ~reorder:1.0 ~reorder_window:10.0 ()) ()
  in
  let e = fresh_faulty ~fault 2 in
  let order = ref [] in
  Engine.register e 1 (fun ~from:_ msg -> order := msg :: !order);
  for i = 1 to 20 do
    Engine.send e ~src:0 ~dst:1 (string_of_int i)
  done;
  Engine.run_until e 20.0;
  let s = Engine.stats e in
  check_int "every copy delayed" 20 s.Engine.reordered;
  check_int "all delivered" 20 s.Engine.delivered;
  check_bool "at least one overtake" true
    (List.rev !order <> List.init 20 (fun i -> string_of_int (i + 1)))

let fault_asymmetric () =
  (* A directed override makes 0→1 lossy while 1→0 stays clean. *)
  let fault =
    Fault.make
      ~directed:(fun ~src ~dst ->
        if src = 0 && dst = 1 then
          Some (Fault.link ~loss:(Link.Loss.Bernoulli 1.0) ())
        else None)
      ()
  in
  let e = fresh_faulty ~fault 2 in
  let got = ref [] in
  Engine.register e 0 (fun ~from:_ msg -> got := msg :: !got);
  Engine.register e 1 (fun ~from:_ msg -> got := msg :: !got);
  for _ = 1 to 5 do
    Engine.send e ~src:0 ~dst:1 "lost";
    Engine.send e ~src:1 ~dst:0 "ok"
  done;
  Engine.run_until e 5.0;
  check_int "only the clean direction delivered" 5 (List.length !got);
  check_bool "all survivors from 1 to 0" true
    (List.for_all (String.equal "ok") !got);
  check_int "lossy direction dropped" 5 (Engine.stats e).Engine.dropped

let fault_link_independence () =
  (* The fault schedule of link (0,1) is a pure function of the engine
     seed: injecting extra traffic on an unrelated link must not change
     which (0,1) messages drop or when the survivors arrive. *)
  let run ~extra_traffic =
    let fault =
      Fault.make
        ~base:
          (Fault.link ~loss:(Link.Loss.Bernoulli 0.4)
             ~latency:(Link.Latency.Uniform { lo = 0.0; hi = 0.3 })
             ())
        ()
    in
    let rng = Basalt_prng.Rng.create ~seed:42 in
    let e : string Engine.t = Engine.create ~fault ~rng ~n:4 () in
    let times = ref [] in
    Engine.register e 1 (fun ~from:_ _ -> times := Engine.now e :: !times);
    Engine.register e 3 (fun ~from:_ _ -> ());
    for _ = 1 to 30 do
      Engine.send e ~src:0 ~dst:1 "probe";
      if extra_traffic then Engine.send e ~src:2 ~dst:3 "noise"
    done;
    Engine.run_until e 5.0;
    !times
  in
  Alcotest.(check (list (float 0.0)))
    "(0,1) schedule independent of (2,3) traffic"
    (run ~extra_traffic:false)
    (run ~extra_traffic:true)

let fault_gilbert_elliott_burstiness () =
  (* A bursty channel with the same stationary loss as an independent
     one produces longer drop runs; check that bursts actually appear
     (a maximal run well above the i.i.d. expectation). *)
  let fault =
    Fault.make
      ~base:
        (Fault.link
           ~loss:
             (Link.Loss.Gilbert_elliott
                { p_gb = 0.05; p_bg = 0.2; good = 0.0; bad = 1.0 })
           ())
      ()
  in
  let e = fresh_faulty ~fault 2 in
  let outcomes = ref [] in
  Engine.register e 1 (fun ~from:_ _ -> ());
  for _ = 1 to 500 do
    let before = (Engine.stats e).Engine.dropped in
    Engine.send e ~src:0 ~dst:1 "x";
    let after = (Engine.stats e).Engine.dropped in
    outcomes := (after > before) :: !outcomes
  done;
  let longest, _ =
    List.fold_left
      (fun (best, cur) dropped ->
        if dropped then (max best (cur + 1), cur + 1) else (best, 0))
      (0, 0) (List.rev !outcomes)
  in
  check_bool "bursts of consecutive drops" true (longest >= 4)

(* --- schedule-invariant properties (DESIGN.md §9) --- *)

let print_latency = function
  | Link.Latency.Zero -> "Zero"
  | Link.Latency.Constant d -> Printf.sprintf "Constant %g" d
  | Link.Latency.Uniform { lo; hi } -> Printf.sprintf "Uniform{%g,%g}" lo hi

let print_loss = function
  | Link.Loss.None -> "None"
  | Link.Loss.Bernoulli p -> Printf.sprintf "Bernoulli %g" p
  | Link.Loss.Gilbert_elliott { p_gb; p_bg; good; bad } ->
      Printf.sprintf "GE{%g,%g;%g,%g}" p_gb p_bg good bad

let print_schedule (s : Gens.schedule) =
  Printf.sprintf "{nodes=%d; registered=%s; sends=%s; horizon=%g}" s.Gens.nodes
    (Print.list Print.bool s.Gens.registered)
    (Print.list (Print.triple Print.float Print.int Print.int) s.Gens.sends)
    s.Gens.horizon

let workload_gen =
  Gen.triple (Gens.schedule ~max_nodes:8 ~max_sends:40) Gens.latency Gens.loss

let print_workload = Print.triple print_schedule print_latency print_loss

(* Replays a generated workload: per-node handlers where [registered],
   every send submitted from a timer at its scheduled time. *)
let run_workload ?(on_event = fun _e -> ()) (sched, latency, loss) =
  let rng = Basalt_prng.Rng.create ~seed:0xC4EC4 in
  let e : unit Engine.t =
    Engine.create ~latency ~loss ~rng ~n:sched.Gens.nodes ()
  in
  List.iteri
    (fun i registered ->
      if registered then Engine.register e i (fun ~from:_ () -> on_event e))
    sched.Gens.registered;
  List.iter
    (fun (t, src, dst) ->
      Engine.schedule e ~delay:t (fun () ->
          on_event e;
          Engine.send e ~src ~dst ()))
    sched.Gens.sends;
  Engine.run_until e sched.Gens.horizon;
  e

(* Message conservation: loss is decided at send time, an arrival
   without a handler is [ignored], everything else reaches a handler. *)
let prop_engine_conservation =
  Check.prop ~name:"sent = delivered + dropped + ignored" ~count:100
    ~print:print_workload workload_gen
    (fun ((sched, _, _) as w) ->
      let e = run_workload w in
      let s = Engine.stats e in
      s.Engine.sent = List.length sched.Gens.sends
      && s.Engine.sent = s.Engine.delivered + s.Engine.dropped + s.Engine.ignored)

(* Event accounting: every executed event is a timer firing or a
   message arrival (delivered or ignored); drops never consume an
   event because lost messages are never enqueued. *)
let prop_engine_event_accounting =
  Check.prop ~name:"events = timers + delivered + ignored" ~count:100
    ~print:print_workload workload_gen
    (fun ((sched, _, _) as w) ->
      let e = run_workload w in
      let s = Engine.stats e in
      let timers = List.length sched.Gens.sends in
      s.Engine.events = timers + s.Engine.delivered + s.Engine.ignored)

(* The virtual clock never runs backwards across any callback, and
   [run_until h] leaves the clock exactly at [h]. *)
let prop_engine_monotone_clock =
  Check.prop ~name:"clock is monotone and lands on the horizon" ~count:100
    ~print:print_workload workload_gen
    (fun ((sched, _, _) as w) ->
      let last = ref neg_infinity in
      let monotone = ref true in
      let e =
        run_workload w ~on_event:(fun e ->
            let t = Engine.now e in
            if t < !last then monotone := false;
            last := t)
      in
      !monotone && Engine.now e = sched.Gens.horizon)

let () =
  Alcotest.run "engine"
    [
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick queue_order;
          Alcotest.test_case "fifo ties" `Quick queue_fifo_ties;
          Alcotest.test_case "size" `Quick queue_size;
          Alcotest.test_case "peek" `Quick queue_peek;
          Alcotest.test_case "interleaved" `Quick queue_interleaved;
          Alcotest.test_case "popped entries released" `Quick
            queue_releases_popped;
          Check.to_alcotest ~suite:"event_queue" prop_queue_sorted;
          Check.to_alcotest ~suite:"event_queue" prop_queue_model;
        ] );
      ( "link",
        [
          Alcotest.test_case "latency models" `Quick latency_models;
          Alcotest.test_case "loss models" `Quick loss_models;
          Alcotest.test_case "gilbert-elliott" `Quick loss_gilbert_elliott;
        ] );
      ( "fault",
        [
          Alcotest.test_case "none is legacy" `Quick fault_none_is_legacy;
          Alcotest.test_case "partition" `Quick fault_partition;
          Alcotest.test_case "partition same side" `Quick
            fault_partition_same_side;
          Alcotest.test_case "outage" `Quick fault_outage;
          Alcotest.test_case "duplication" `Quick fault_duplication;
          Alcotest.test_case "reorder" `Quick fault_reorder;
          Alcotest.test_case "asymmetric" `Quick fault_asymmetric;
          Alcotest.test_case "link independence" `Quick
            fault_link_independence;
          Alcotest.test_case "gilbert-elliott bursts" `Quick
            fault_gilbert_elliott_burstiness;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delivery" `Quick engine_delivery;
          Alcotest.test_case "unregistered dst" `Quick engine_unregistered_ok;
          Alcotest.test_case "register out of range" `Quick
            engine_out_of_range_register;
          Alcotest.test_case "timer order" `Quick engine_timer_order;
          Alcotest.test_case "negative delay" `Quick engine_negative_delay;
          Alcotest.test_case "every count" `Quick engine_every_count;
          Alcotest.test_case "every phase" `Quick engine_every_phase;
          Alcotest.test_case "every invalid" `Quick engine_every_invalid;
          Alcotest.test_case "clock advances" `Quick engine_clock_advances;
          Alcotest.test_case "message before next round" `Quick
            engine_message_before_next_round;
          Alcotest.test_case "step" `Quick engine_step;
          Alcotest.test_case "stats" `Quick engine_stats;
          Alcotest.test_case "loss" `Quick engine_loss;
          Alcotest.test_case "latency" `Quick engine_latency;
          Alcotest.test_case "n" `Quick engine_n;
        ] );
      Check.suite "schedule properties"
        [
          prop_engine_conservation;
          prop_engine_event_accounting;
          prop_engine_monotone_clock;
        ];
    ]
