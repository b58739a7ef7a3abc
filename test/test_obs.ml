(* Tests for basalt.obs: registry determinism, instrument semantics,
   the disabled sink's zero-interaction guarantee, and the trace
   JSONL/CSV round-trip. *)

module Obs = Basalt_obs.Obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)

(* --- Registry --- *)

let registry_get_or_create () =
  let t = Obs.create () in
  let c1 = Obs.counter t "a" in
  let c2 = Obs.counter t "a" in
  Obs.Counter.incr c1;
  Obs.Counter.add c2 2;
  check_int "same cell by name" 3 (Obs.Counter.value c1);
  let g = Obs.gauge t "g" in
  Obs.Gauge.set g 1.5;
  check_float "gauge set" 1.5 (Obs.Gauge.value (Obs.gauge t "g"))

let registry_kind_clash () =
  let t = Obs.create () in
  ignore (Obs.counter t "x");
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Obs: \"x\" already registered as a counter") (fun () ->
      ignore (Obs.gauge t "x"))

let registry_snapshot_order () =
  (* Snapshot order is registration order, not alphabetical and not
     hash order — that is what keeps reports bit-identical. *)
  let t = Obs.create () in
  Obs.Counter.incr (Obs.counter t "zz");
  Obs.Gauge.set (Obs.gauge t "aa") 2.0;
  Obs.Counter.add (Obs.counter t "mm") 5;
  Alcotest.(check (list (pair string (float 1e-9))))
    "registration order"
    [ ("zz", 1.0); ("aa", 2.0); ("mm", 5.0) ]
    (Obs.snapshot t)

let registry_snapshot_deterministic () =
  (* Two registries fed the same operations render identically,
     regardless of interleaved lookups. *)
  let feed t =
    let c = Obs.counter t "basalt.rounds" in
    let g = Obs.gauge t "basalt.max_msg_bytes" in
    let h = Obs.histogram t "basalt.msg_bytes" in
    for i = 1 to 10 do
      Obs.Counter.incr c;
      Obs.Gauge.set_max g (float_of_int (i * 100));
      Obs.Histogram.observe h (float_of_int (i * 100));
      (* re-lookup mid-stream must hit the same cells *)
      Obs.Counter.incr (Obs.counter t "basalt.rounds")
    done;
    Obs.render t
  in
  check_string "bit-identical renders" (feed (Obs.create ()))
    (feed (Obs.create ()))

(* --- Counters, gauges, histograms --- *)

let counter_semantics () =
  let t = Obs.create () in
  let c = Obs.counter t "c" in
  check_int "starts at zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  check_int "accumulates" 42 (Obs.Counter.value c)

let gauge_semantics () =
  let t = Obs.create () in
  let g = Obs.gauge t "g" in
  check_float "starts at zero" 0.0 (Obs.Gauge.value g);
  Obs.Gauge.set g 5.0;
  Obs.Gauge.set g 3.0;
  check_float "set overwrites" 3.0 (Obs.Gauge.value g);
  Obs.Gauge.set_max g 2.0;
  check_float "set_max keeps max" 3.0 (Obs.Gauge.value g);
  Obs.Gauge.set_max g 7.0;
  check_float "set_max raises" 7.0 (Obs.Gauge.value g)

let histogram_bucket_edges () =
  let t = Obs.create () in
  let h = Obs.histogram ~edges:[| 10.0; 20.0 |] t "h" in
  (* Edges are inclusive upper bounds; beyond the last edge lands in
     the overflow bucket. *)
  List.iter (Obs.Histogram.observe h) [ 0.0; 10.0; 10.5; 20.0; 21.0 ];
  check_int "count" 5 (Obs.Histogram.count h);
  check_float "sum" 61.5 (Obs.Histogram.sum h);
  Alcotest.(check (array int))
    "bucket counts (<=10, <=20, overflow)" [| 2; 2; 1 |]
    (Obs.Histogram.bucket_counts h);
  Alcotest.(check (array (float 1e-9)))
    "edges preserved" [| 10.0; 20.0 |] (Obs.Histogram.edges h)

let histogram_default_edges () =
  let t = Obs.create () in
  let h = Obs.histogram t "bytes" in
  Alcotest.(check (array (float 1e-9)))
    "powers of two 64..65536"
    [| 64.0; 128.0; 256.0; 512.0; 1024.0; 2048.0; 4096.0; 8192.0; 16384.0;
       32768.0; 65536.0 |]
    (Obs.Histogram.edges h)

let histogram_bad_edges () =
  let t = Obs.create () in
  Alcotest.check_raises "unsorted edges"
    (Invalid_argument "Obs.histogram: edges must be strictly increasing")
    (fun () -> ignore (Obs.histogram ~edges:[| 2.0; 1.0 |] t "bad"));
  Alcotest.check_raises "empty edges"
    (Invalid_argument "Obs.histogram: empty edges") (fun () ->
      ignore (Obs.histogram ~edges:[||] t "empty"))

(* --- Disabled sink --- *)

let disabled_zero_interaction () =
  check_bool "not enabled" false (Obs.enabled Obs.disabled);
  check_bool "not tracing" false (Obs.tracing Obs.disabled);
  (* Dummies are fresh: mutating one is invisible to the next lookup,
     so nothing is ever shared between call sites (or domains). *)
  let c = Obs.counter Obs.disabled "x" in
  Obs.Counter.incr c;
  check_int "dummy mutated locally" 1 (Obs.Counter.value c);
  check_int "next lookup is fresh" 0
    (Obs.Counter.value (Obs.counter Obs.disabled "x"));
  Obs.trace Obs.disabled ~name:"e" [ ("k", Obs.Int 1) ];
  check_int "no events recorded" 0 (Obs.event_count Obs.disabled);
  check_bool "empty snapshot" true (Obs.snapshot Obs.disabled = []);
  (* set_clock must not mutate the global disabled value *)
  Obs.set_clock Obs.disabled (fun () -> 99.0);
  Obs.trace Obs.disabled ~name:"e" [];
  check_int "still no events" 0 (Obs.event_count Obs.disabled)

(* --- Tracing --- *)

let trace_records_events () =
  let now = ref 1.0 in
  let t = Obs.create ~clock:(fun () -> !now) ~trace:true () in
  check_bool "tracing on" true (Obs.tracing t);
  Obs.trace t ~name:"engine.send" [ ("src", Obs.Int 0); ("dst", Obs.Int 1) ];
  now := 2.5;
  Obs.trace t ~name:"engine.deliver" [ ("kind", Obs.Str "pull") ];
  check_int "two events" 2 (Obs.event_count t);
  match Obs.events t with
  | [ e1; e2 ] ->
      check_float "first stamp" 1.0 e1.Obs.time;
      check_string "first name" "engine.send" e1.Obs.name;
      check_float "second stamp" 2.5 e2.Obs.time;
      check_bool "fields kept in order" true
        (e1.Obs.fields = [ ("src", Obs.Int 0); ("dst", Obs.Int 1) ])
  | _ -> Alcotest.fail "expected two events"

let trace_off_by_default () =
  let t = Obs.create () in
  check_bool "instruments only" false (Obs.tracing t);
  Obs.trace t ~name:"e" [];
  check_int "trace is a no-op" 0 (Obs.event_count t)

(* Streams [t]'s trace through a temporary file and reads it back. *)
let jsonl_of ?extra t =
  let path = Filename.temp_file "obs" ".jsonl" in
  Out_channel.with_open_bin path (fun oc -> Obs.output_jsonl ?extra oc t);
  let s = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  s

let jsonl_round_trip () =
  let t = Obs.create ~clock:(fun () -> 3.25) ~trace:true () in
  Obs.trace t ~name:"msg"
    [
      ("src", Obs.Int 7);
      ("bytes", Obs.Float 88.5);
      ("kind", Obs.Str "pull-reply");
      ("quoted", Obs.Str "a\"b\\c");
    ];
  let line = String.trim (jsonl_of t) in
  check_bool "looks like json" true
    (String.length line > 2 && line.[0] = '{'
    && line.[String.length line - 1] = '}');
  match Obs.event_of_json line with
  | None -> Alcotest.fail "round trip parse failed"
  | Some e ->
      check_float "time survives" 3.25 e.Obs.time;
      check_string "name survives" "msg" e.Obs.name;
      check_bool "fields survive" true
        (e.Obs.fields
        = [
            ("src", Obs.Int 7);
            ("bytes", Obs.Float 88.5);
            ("kind", Obs.Str "pull-reply");
            ("quoted", Obs.Str "a\"b\\c");
          ])

let jsonl_extra_fields () =
  let t = Obs.create ~trace:true () in
  Obs.trace t ~name:"e" [ ("k", Obs.Int 1) ];
  let line =
    String.trim (jsonl_of ~extra:[ ("proto", Obs.Str "basalt") ] t)
  in
  match Obs.event_of_json line with
  | None -> Alcotest.fail "parse with extra failed"
  | Some e ->
      check_bool "extra comes back as a field" true
        (List.mem_assoc "proto" e.Obs.fields
        && List.assoc "proto" e.Obs.fields = Obs.Str "basalt")

let event_of_json_rejects_garbage () =
  check_bool "not json" true (Obs.event_of_json "nonsense" = None);
  check_bool "missing keys" true (Obs.event_of_json "{\"a\":1}" = None);
  check_bool "empty" true (Obs.event_of_json "" = None)

let csv_rendering () =
  let t = Obs.create ~clock:(fun () -> 1.0) ~trace:true () in
  Obs.trace t ~name:"e" [ ("k", Obs.Int 2) ];
  let csv = Obs.events_to_csv t in
  check_bool "header present" true
    (String.length csv >= 17 && String.sub csv 0 17 = "time,event,fields");
  check_bool "k=v packed" true
    (String.length csv > 0
    &&
    let lines = String.split_on_char '\n' csv in
    List.exists (fun l -> l = "1.0,e,k=2") lines)

(* Pinned regression: string values carrying the pack metacharacters
   (';' ',' '"' '=') must not corrupt the k=v packing (issue 8). *)
let csv_escapes_metacharacters () =
  let t = Obs.create ~clock:(fun () -> 1.0) ~trace:true () in
  Obs.trace t ~name:"e"
    [
      ("msg", Obs.Str "a;b=c");
      ("quote", Obs.Str "say \"hi\"");
      ("comma", Obs.Str "x,y");
      ("plain", Obs.Int 7);
    ];
  let csv = Obs.events_to_csv t in
  let lines = String.split_on_char '\n' csv in
  check_bool "escaped line pinned" true
    (List.exists
       (fun l ->
         l
         = "1.0,e,\"msg=\"\"a;b=c\"\";quote=\"\"say \"\"\"\"hi\"\"\"\"\"\";\
            comma=\"\"x,y\"\";plain=7\"")
       lines)

(* --- Quantiles: histogram interpolation and the log-bucket sketch --- *)

let histogram_quantile () =
  let t = Obs.create () in
  let h = Obs.histogram ~edges:[| 10.0; 20.0; 40.0 |] t "h" in
  check_float "empty reads zero" 0.0 (Obs.Histogram.quantile h 0.5);
  (* 10 observations in (10, 20]: the median interpolates to the bucket
     midpoint, the extremes to the edges. *)
  for _ = 1 to 10 do
    Obs.Histogram.observe h 15.0
  done;
  check_float "median interpolates" 15.0 (Obs.Histogram.quantile h 0.5);
  check_float "q=1 reaches the upper edge" 20.0 (Obs.Histogram.quantile h 1.0);
  Obs.Histogram.observe h 100.0;
  check_float "overflow clamps to last edge" 40.0
    (Obs.Histogram.quantile h 1.0);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Obs.Histogram.quantile: q outside [0, 1]") (fun () ->
      ignore (Obs.Histogram.quantile h 1.5))

let sketch_semantics () =
  let s = Obs.Sketch.make () in
  check_float "empty quantile" 0.0 (Obs.Sketch.quantile s 0.5);
  for i = 1 to 1000 do
    Obs.Sketch.add s (float_of_int i)
  done;
  check_int "count" 1000 (Obs.Sketch.count s);
  check_float "sum exact" 500500.0 (Obs.Sketch.sum s);
  check_float "min exact" 1.0 (Obs.Sketch.vmin s);
  check_float "max exact" 1000.0 (Obs.Sketch.vmax s);
  let eps = Obs.Sketch.relative_error in
  List.iter
    (fun (q, true_v) ->
      let est = Obs.Sketch.quantile s q in
      check_bool
        (Printf.sprintf "q=%g within relative error (est %g, true %g)" q est
           true_v)
        true
        (Float.abs (est -. true_v) <= (eps +. 1e-9) *. true_v))
    [ (0.5, 500.0); (0.9, 900.0); (0.99, 990.0) ];
  check_float "q=0 exact here" 1.0 (Obs.Sketch.quantile s 0.0);
  check_float "q=1 exact here" 1000.0 (Obs.Sketch.quantile s 1.0);
  (* Zeros and negatives land in the low cell; the low cell reads back
     as 0, clamped into the observed range. *)
  let z = Obs.Sketch.make () in
  Obs.Sketch.add z 0.0;
  Obs.Sketch.add z (-5.0);
  check_float "low cell reads zero" 0.0 (Obs.Sketch.quantile z 1.0);
  check_float "negative min preserved" (-5.0) (Obs.Sketch.vmin z)

let sketch_fingerprint s =
  (Obs.Sketch.buckets s, Obs.Sketch.count s, Obs.Sketch.sum s,
   Obs.Sketch.vmin s, Obs.Sketch.vmax s)

(* Merge is bucket-wise integer addition, hence exactly associative and
   commutative; integer-valued observations keep the float sums exact so
   the comparison is structural equality, not approximate. *)
let sketch_merge_associative () =
  let mk seed n =
    let s = Obs.Sketch.make () in
    for i = 1 to n do
      Obs.Sketch.add s (float_of_int (((seed * 7919) + (i * 104729)) mod 5000))
    done;
    s
  in
  let a = mk 1 100 and b = mk 2 250 and c = mk 3 50 in
  let open Obs.Sketch in
  check_bool "associative" true
    (sketch_fingerprint (merge (merge a b) c)
    = sketch_fingerprint (merge a (merge b c)));
  check_bool "commutative" true
    (sketch_fingerprint (merge a b) = sketch_fingerprint (merge b a));
  check_bool "identity" true
    (sketch_fingerprint (merge a (make ())) = sketch_fingerprint a);
  check_bool "inputs not mutated" true
    (count a = 100 && count b = 250 && count c = 50)

let series_windows () =
  let t = Obs.create () in
  let s = Obs.series t "sim.view_byz" in
  Obs.Series.observe s 1.0;
  Obs.Series.observe s 3.0;
  Obs.roll_series t;
  Obs.Series.observe s 5.0;
  Obs.roll_series t;
  Obs.roll_series t;
  check_int "three closed windows" 3 (Obs.Series.window_count s);
  check_int "total observations" 3 (Obs.Series.total s);
  check_float "grand sum" 9.0 (Obs.Series.grand_sum s);
  (match Obs.Series.windows s with
  | [ w1; w2; w3 ] ->
      check_int "w1 count" 2 w1.Obs.Series.w_count;
      check_float "w1 sum" 4.0 w1.Obs.Series.w_sum;
      check_float "w1 min" 1.0 w1.Obs.Series.w_min;
      check_float "w1 max" 3.0 w1.Obs.Series.w_max;
      check_int "w2 count" 1 w2.Obs.Series.w_count;
      check_int "w3 empty" 0 w3.Obs.Series.w_count
  | _ -> Alcotest.fail "expected three windows");
  check_bool "series excluded from snapshot" true (Obs.snapshot t = [])

(* --- Spans --- *)

let span_emits_single_event () =
  let now = ref 2.0 in
  let t = Obs.create ~clock:(fun () -> !now) ~trace:true () in
  let sp = Obs.span t ~name:"basalt.pull" [ ("src", Obs.Int 3) ] in
  check_int "nothing emitted while open" 0 (Obs.event_count t);
  now := 5.5;
  Obs.span_end ~fields:[ ("ok", Obs.Int 1) ] t sp;
  match Obs.events t with
  | [ e ] ->
      check_string "named after the span" "basalt.pull" e.Obs.name;
      check_float "stamped at close" 5.5 e.Obs.time;
      check_bool "sid, t0, dur, then both field sets" true
        (e.Obs.fields
        = [
            ("sid", Obs.Int 0);
            ("t0", Obs.Float 2.0);
            ("dur", Obs.Float 3.5);
            ("src", Obs.Int 3);
            ("ok", Obs.Int 1);
          ])
  | _ -> Alcotest.fail "expected exactly one event"

let span_ids_sequential () =
  let t = Obs.create ~trace:true () in
  let a = Obs.span t ~name:"a" [] in
  let b = Obs.span t ~name:"b" [] in
  (* Close out of order: ids were fixed at open time. *)
  Obs.span_end t b;
  Obs.span_end t a;
  match Obs.events t with
  | [ eb; ea ] ->
      check_bool "b has sid 1" true (List.assoc "sid" eb.Obs.fields = Obs.Int 1);
      check_bool "a has sid 0" true (List.assoc "sid" ea.Obs.fields = Obs.Int 0)
  | _ -> Alcotest.fail "expected two events"

let span_noop_without_tracing () =
  let t = Obs.create () in
  let sp = Obs.span t ~name:"x" [ ("k", Obs.Int 1) ] in
  Obs.span_end t sp;
  check_int "no events" 0 (Obs.event_count t);
  (* The disabled sink behaves the same. *)
  Obs.span_end Obs.disabled (Obs.span Obs.disabled ~name:"y" []);
  check_int "disabled emits nothing" 0 (Obs.event_count Obs.disabled)

(* --- Render --- *)

let render_lists_instruments () =
  let t = Obs.create () in
  Obs.Counter.add (Obs.counter t "basalt.rounds") 30;
  Obs.Gauge.set (Obs.gauge t "basalt.max_msg_bytes") 94.0;
  Obs.Histogram.observe (Obs.histogram t "basalt.msg_bytes") 94.0;
  let r = Obs.render t in
  List.iter
    (fun needle ->
      let found =
        let nl = String.length needle and rl = String.length r in
        let rec scan i = i + nl <= rl && (String.sub r i nl = needle || scan (i + 1)) in
        scan 0
      in
      check_bool (Printf.sprintf "render mentions %s" needle) true found)
    [ "basalt.rounds"; "basalt.max_msg_bytes"; "basalt.msg_bytes"; "30" ]

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

let render_shows_percentiles () =
  let t = Obs.create () in
  let h = Obs.histogram ~edges:[| 10.0; 20.0 |] t "net.rtt" in
  for _ = 1 to 4 do
    Obs.Histogram.observe h 15.0
  done;
  let s = Obs.sketch t "basalt.pull_rtt" in
  for i = 1 to 100 do
    Obs.Sketch.add s (float_of_int i)
  done;
  let r = Obs.render t in
  check_bool "histogram p50" true (contains r "p50=15.0");
  check_bool "sketch line present" true (contains r "sketch     basalt.pull_rtt");
  check_bool "sketch p99 present" true (contains r "p99=");
  check_bool "sketch max exact" true (contains r "max=100.0")

let prometheus_rendering () =
  let t = Obs.create () in
  Obs.Counter.add (Obs.counter t "net.datagrams_out") 12;
  Obs.Gauge.set (Obs.gauge t "basalt.view_size") 160.0;
  let h = Obs.histogram ~edges:[| 10.0; 20.0 |] t "net.msg_bytes" in
  Obs.Histogram.observe h 5.0;
  Obs.Histogram.observe h 15.0;
  Obs.Histogram.observe h 99.0;
  let s = Obs.sketch t "gossip.hop_latency" in
  Obs.Sketch.add s 2.0;
  Obs.Series.observe (Obs.series t "sim.view_byz") 1.0;
  let p = Obs.render_prometheus t in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "exposition has %S" needle) true
        (contains p needle))
    [
      "# TYPE net_datagrams_out counter\nnet_datagrams_out 12\n";
      "# TYPE basalt_view_size gauge\nbasalt_view_size 160.0\n";
      "net_msg_bytes_bucket{le=\"10.0\"} 1\n";
      "net_msg_bytes_bucket{le=\"20.0\"} 2\n";
      "net_msg_bytes_bucket{le=\"+Inf\"} 3\n";
      "net_msg_bytes_count 3\n";
      "# TYPE gossip_hop_latency summary";
      "gossip_hop_latency{quantile=\"0.5\"}";
      "gossip_hop_latency_count 1\n";
      "sim_view_byz_total 1\n";
    ]

(* --- properties: order-independence of commutative instrument ops ---

   Instrument values (and therefore snapshots, renders, and trace
   columns) must depend only on the multiset of operations applied, not
   on their interleaving — that is what keeps `-j N` traces
   bit-identical (DESIGN.md §8).  Operands are integer-valued so float
   accumulation is exact and the comparison can be byte-for-byte. *)

module Check = Basalt_check.Check
module Gen = Check.Gen
module Print = Check.Print

type op = Incr | Add of int | Set_max of int | Observe of int

let print_op = function
  | Incr -> "Incr"
  | Add n -> Printf.sprintf "Add %d" n
  | Set_max n -> Printf.sprintf "Set_max %d" n
  | Observe n -> Printf.sprintf "Observe %d" n

let op_gen =
  Gen.oneof
    [
      Gen.return Incr;
      Gen.map (fun n -> Add n) (Gen.nat ~max:100);
      Gen.map (fun n -> Set_max n) (Gen.nat ~max:1000);
      Gen.map (fun n -> Observe n) (Gen.nat ~max:1000);
    ]

let ops_gen = Gen.list ~max_len:40 op_gen

let apply_ops ops =
  let t = Obs.create () in
  let c = Obs.counter t "basalt.rounds" in
  let g = Obs.gauge t "basalt.max_msg_bytes" in
  let h = Obs.histogram t "basalt.msg_bytes" in
  List.iter
    (function
      | Incr -> Obs.Counter.incr c
      | Add n -> Obs.Counter.add c n
      | Set_max n -> Obs.Gauge.set_max g (float_of_int n)
      | Observe n -> Obs.Histogram.observe h (float_of_int n))
    ops;
  ( Obs.render t,
    Obs.snapshot t,
    Obs.Histogram.bucket_counts h,
    Obs.Histogram.sum h )

let prop_snapshot_order_independent =
  Check.prop ~name:"equal op multisets render byte-identically" ~count:150
    ~print:(Print.list print_op) ops_gen
    (fun ops -> apply_ops ops = apply_ops (List.rev ops))

(* Reference model: instrument values are simple folds over the ops. *)
let prop_snapshot_matches_model =
  Check.prop ~name:"instrument values match a fold over the ops" ~count:150
    ~print:(Print.list print_op) ops_gen
    (fun ops ->
      let _, snapshot, buckets, _ = apply_ops ops in
      let counter =
        List.fold_left
          (fun acc -> function Incr -> acc + 1 | Add n -> acc + n | _ -> acc)
          0 ops
      in
      let gauge =
        List.fold_left
          (fun acc -> function
            | Set_max n -> Float.max acc (float_of_int n) | _ -> acc)
          0.0 ops
      in
      let observes =
        List.fold_left
          (fun acc -> function Observe _ -> acc + 1 | _ -> acc)
          0 ops
      in
      (* snapshot carries counters and gauges; histograms expose their
         totals through bucket counts. *)
      snapshot
      = [
          ("basalt.rounds", float_of_int counter);
          ("basalt.max_msg_bytes", gauge);
        ]
      && Array.fold_left ( + ) 0 buckets = observes)

(* JSON round-trip: any event the generator can produce survives
   [event_to_json] → [event_of_json] structurally intact (issue 8). *)
let print_event (e : Obs.event) =
  Printf.sprintf "{t=%.17g; ev=%S; fields=%s}" e.Obs.time e.Obs.name
    (Print.list
       (fun (k, v) ->
         Printf.sprintf "(%S, %s)" k
           (match v with
           | Obs.Int n -> Printf.sprintf "Int %d" n
           | Obs.Float x -> Printf.sprintf "Float %.17g" x
           | Obs.Str s -> Printf.sprintf "Str %S" s))
       e.Obs.fields)

let prop_event_json_round_trip =
  Check.prop ~name:"event_of_json (event_to_json e) = Some e" ~count:300
    ~print:print_event
    (Check.Gens.obs_event ())
    (fun e -> Obs.event_of_json (Obs.event_to_json e) = Some e)

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "get or create" `Quick registry_get_or_create;
          Alcotest.test_case "kind clash" `Quick registry_kind_clash;
          Alcotest.test_case "snapshot order" `Quick registry_snapshot_order;
          Alcotest.test_case "deterministic render" `Quick
            registry_snapshot_deterministic;
        ] );
      ( "instruments",
        [
          Alcotest.test_case "counter" `Quick counter_semantics;
          Alcotest.test_case "gauge" `Quick gauge_semantics;
          Alcotest.test_case "histogram bucket edges" `Quick
            histogram_bucket_edges;
          Alcotest.test_case "histogram default edges" `Quick
            histogram_default_edges;
          Alcotest.test_case "histogram bad edges" `Quick histogram_bad_edges;
          Alcotest.test_case "histogram quantile" `Quick histogram_quantile;
          Alcotest.test_case "sketch semantics" `Quick sketch_semantics;
          Alcotest.test_case "sketch merge associative" `Quick
            sketch_merge_associative;
          Alcotest.test_case "series windows" `Quick series_windows;
        ] );
      ( "spans",
        [
          Alcotest.test_case "emits single event" `Quick
            span_emits_single_event;
          Alcotest.test_case "sequential ids" `Quick span_ids_sequential;
          Alcotest.test_case "noop without tracing" `Quick
            span_noop_without_tracing;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "zero interaction" `Quick
            disabled_zero_interaction;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records events" `Quick trace_records_events;
          Alcotest.test_case "off by default" `Quick trace_off_by_default;
          Alcotest.test_case "jsonl round trip" `Quick jsonl_round_trip;
          Alcotest.test_case "jsonl extra fields" `Quick jsonl_extra_fields;
          Alcotest.test_case "rejects garbage" `Quick
            event_of_json_rejects_garbage;
          Alcotest.test_case "csv rendering" `Quick csv_rendering;
          Alcotest.test_case "csv escapes metacharacters" `Quick
            csv_escapes_metacharacters;
        ] );
      ( "render",
        [
          Alcotest.test_case "lists instruments" `Quick
            render_lists_instruments;
          Alcotest.test_case "shows percentiles" `Quick
            render_shows_percentiles;
          Alcotest.test_case "prometheus exposition" `Quick
            prometheus_rendering;
        ] );
      Check.suite "properties"
        [
          prop_snapshot_order_independent;
          prop_snapshot_matches_model;
          prop_event_json_round_trip;
        ];
    ]
