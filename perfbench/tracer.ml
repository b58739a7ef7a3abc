(* Span recorder for the traced run.

   Every call the benchmark makes into a layer's public function is
   wrapped by [wrap]: it records the call count, the inclusive host time,
   the self time (inclusive minus the time covered by nested wrapped
   calls) and the minor-heap words allocated.  Finished spans (name,
   start, end, parent) go into a fixed-size ring, so memory stays bounded
   however long the run is; [write_spans] dumps the ring when the run
   ends.  Only the traced run calls [wrap]; the untraced run uses
   nothing here but the clock, [now_ns]. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type op = {
  name : string;
  layer : string;  (** The name up to its first dot. *)
  mutable calls : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable words : float;
}

let registry : (string, op) Hashtbl.t = Hashtbl.create 64

let op name =
  match Hashtbl.find_opt registry name with
  | Some o -> o
  | None ->
      let layer =
        match String.index_opt name '.' with
        | Some i -> String.sub name 0 i
        | None -> name
      in
      let o = { name; layer; calls = 0; total_ns = 0; self_ns = 0; words = 0.0 } in
      Hashtbl.replace registry name o;
      o

(* Active-span stack.  Wrapped calls nest (a handler sends, a timer
   callback runs a protocol round), never deeper than a few levels. *)
let max_depth = 64
let depth = ref 0
let st_child = Array.make max_depth 0
let st_words = Array.make max_depth 0.0
let st_id = Array.make max_depth 0
let next_id = ref 0

(* Host time covered by outermost spans, i.e. time spent inside some
   wrapped call rather than in the engine loop itself. *)
let top_ns = ref 0

(* Ring of the most recent finished spans. *)
let window = 16384
let ring_op = Array.make window (op "engine.send")
let ring_start = Array.make window 0
let ring_end = Array.make window 0
let ring_id = Array.make window 0
let ring_parent = Array.make window 0
let ring_count = ref 0

let finish o d start =
  let stop = now_ns () in
  let words = Gc.minor_words () -. st_words.(d) in
  depth := d;
  let dur = stop - start in
  o.calls <- o.calls + 1;
  o.total_ns <- o.total_ns + dur;
  o.self_ns <- o.self_ns + dur - st_child.(d);
  o.words <- o.words +. words;
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur
  else top_ns := !top_ns + dur;
  let slot = !ring_count mod window in
  ring_op.(slot) <- o;
  ring_start.(slot) <- start;
  ring_end.(slot) <- stop;
  ring_id.(slot) <- st_id.(d);
  ring_parent.(slot) <- (if d > 0 then st_id.(d - 1) else -1);
  incr ring_count

let wrap o f =
  let d = !depth in
  if d >= max_depth then failwith "Tracer.wrap: spans nested too deeply";
  st_id.(d) <- !next_id;
  incr next_id;
  st_child.(d) <- 0;
  depth := d + 1;
  st_words.(d) <- Gc.minor_words ();
  let start = now_ns () in
  match f () with
  | v ->
      finish o d start;
      v
  | exception e ->
      finish o d start;
      raise e

let find name = Hashtbl.find_opt registry name

(* Sum of self time over every op of [layer]. *)
let layer_self_ns layer =
  Hashtbl.fold
    (fun _ o acc -> if o.layer = layer then acc + o.self_ns else acc)
    registry 0

let layers () =
  List.sort_uniq compare
    (Hashtbl.fold (fun _ o acc -> o.layer :: acc) registry [])

let self_by_layer () = List.map (fun l -> (l, layer_self_ns l)) (layers ())

let write_spans path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let count = min !ring_count window in
      let first = !ring_count - count in
      let origin = if count = 0 then 0 else ring_start.(first mod window) in
      for k = first to !ring_count - 1 do
        let s = k mod window in
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d}\n"
          ring_id.(s) ring_op.(s).name
          (ring_start.(s) - origin)
          (ring_end.(s) - origin)
          ring_parent.(s)
      done)
