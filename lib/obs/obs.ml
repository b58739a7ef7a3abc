module Counter = struct
  type t = { mutable n : int }

  let make () = { n = 0 }
  let incr c = c.n <- c.n + 1
  let add c k = c.n <- c.n + k
  let value c = c.n
end

module Gauge = struct
  type t = { mutable v : float }

  let make () = { v = 0.0 }
  let set g x = g.v <- x
  let set_max g x = if x > g.v then g.v <- x
  let value g = g.v
end

module Histogram = struct
  type t = {
    edges : float array;
    counts : int array;  (* length edges + 1; last cell = overflow *)
    mutable total : int;
    mutable sum : float;
  }

  let make edges =
    let n = Array.length edges in
    if n = 0 then invalid_arg "Obs.histogram: empty edges";
    for i = 1 to n - 1 do
      if edges.(i) <= edges.(i - 1) then
        invalid_arg "Obs.histogram: edges must be strictly increasing"
    done;
    { edges = Array.copy edges; counts = Array.make (n + 1) 0; total = 0; sum = 0.0 }

  let observe h x =
    let n = Array.length h.edges in
    let i = ref 0 in
    while !i < n && x > h.edges.(!i) do
      incr i
    done;
    h.counts.(!i) <- h.counts.(!i) + 1;
    h.total <- h.total + 1;
    h.sum <- h.sum +. x

  let count h = h.total
  let sum h = h.sum
  let edges h = Array.copy h.edges
  let bucket_counts h = Array.copy h.counts

  (* Interpolated quantile: walk the cumulative counts to the bucket
     containing rank [q * total], then interpolate linearly between that
     bucket's lower and upper edges.  The first bucket's lower edge is
     taken as [min 0 edges.(0)] (these histograms record non-negative
     sizes and latencies); the overflow bucket cannot be interpolated and
     clamps to the last edge.  Everything is a pure fold over the counts,
     so the estimate is deterministic. *)
  let quantile h q =
    if q < 0.0 || q > 1.0 then
      invalid_arg "Obs.Histogram.quantile: q outside [0, 1]";
    if h.total = 0 then 0.0
    else begin
      let n = Array.length h.edges in
      let target = q *. float_of_int h.total in
      let rec find i cum =
        if i > n then h.edges.(n - 1)
        else
          let c = h.counts.(i) in
          if c > 0 && float_of_int (cum + c) >= target then
            if i = n then h.edges.(n - 1)
            else
              let lo =
                if i = 0 then Float.min 0.0 h.edges.(0) else h.edges.(i - 1)
              in
              let hi = h.edges.(i) in
              let frac = (target -. float_of_int cum) /. float_of_int c in
              lo +. ((hi -. lo) *. Float.max 0.0 frac)
          else find (i + 1) (cum + c)
      in
      find 0 0
    end
end

module Sketch = struct
  (* A DDSketch-style log-bucketed quantile sketch: values map to the
     bucket [ceil (log_gamma x)], so any quantile estimate is within a
     fixed relative error of the true value.  The bucket mapping is a
     global constant, which is what makes [merge] a plain bucket-wise
     addition — exactly associative and commutative, the property the
     parallel fan-out and the trace analyzer rely on. *)

  let gamma = 1.04
  let relative_error = (gamma -. 1.0) /. (gamma +. 1.0)
  let ln_gamma = Float.log gamma

  (* Value range covered with full accuracy; anything at or below
     [min_value] (zeros and negatives included) lands in the dedicated
     low cell and reads back as 0, anything above [max_value] clamps to
     the top bucket. *)
  let min_value = 1e-9
  let max_value = 1e15
  let min_index = int_of_float (Float.floor (Float.log min_value /. ln_gamma))
  let max_index = int_of_float (Float.ceil (Float.log max_value /. ln_gamma))

  (* Cell 0 is the low cell; cell [c >= 1] holds bucket [min_index + c - 1]. *)
  let cells_len = max_index - min_index + 2

  type t = {
    cells : int array;
    mutable total : int;
    mutable vsum : float;
    mutable vmin : float;
    mutable vmax : float;
  }

  let make () =
    {
      cells = Array.make cells_len 0;
      total = 0;
      vsum = 0.0;
      vmin = Float.infinity;
      vmax = Float.neg_infinity;
    }

  let cell_of x =
    if x <= min_value then 0
    else
      let i = int_of_float (Float.ceil (Float.log x /. ln_gamma)) in
      let i = if i < min_index then min_index else i in
      let i = if i > max_index then max_index else i in
      i - min_index + 1

  let value_of_cell c =
    if c = 0 then 0.0
    else 2.0 *. (gamma ** float_of_int (c - 1 + min_index)) /. (gamma +. 1.0)

  let add s x =
    s.cells.(cell_of x) <- s.cells.(cell_of x) + 1;
    s.total <- s.total + 1;
    s.vsum <- s.vsum +. x;
    if x < s.vmin then s.vmin <- x;
    if x > s.vmax then s.vmax <- x

  let count s = s.total
  let sum s = s.vsum
  let vmin s = if s.total = 0 then 0.0 else s.vmin
  let vmax s = if s.total = 0 then 0.0 else s.vmax

  let quantile s q =
    if q < 0.0 || q > 1.0 then
      invalid_arg "Obs.Sketch.quantile: q outside [0, 1]";
    if s.total = 0 then 0.0
    else begin
      let target =
        let r = int_of_float (Float.ceil (q *. float_of_int s.total)) in
        if r < 1 then 1 else if r > s.total then s.total else r
      in
      let rec find c cum =
        if c >= cells_len then s.vmax
        else
          let cum = cum + s.cells.(c) in
          if cum >= target then
            (* Clamp to the observed range so extreme quantiles read back
               the exact min/max rather than a bucket midpoint. *)
            Float.min s.vmax (Float.max s.vmin (value_of_cell c))
          else find (c + 1) cum
      in
      find 0 0
    end

  let merge a b =
    let out = make () in
    Array.iteri (fun i c -> out.cells.(i) <- c + b.cells.(i)) a.cells;
    out.total <- a.total + b.total;
    out.vsum <- a.vsum +. b.vsum;
    out.vmin <- Float.min a.vmin b.vmin;
    out.vmax <- Float.max a.vmax b.vmax;
    out

  let buckets s =
    let out = ref [] in
    for i = cells_len - 1 downto 0 do
      if s.cells.(i) > 0 then out := (i, s.cells.(i)) :: !out
    done;
    !out
end

module Series = struct
  type window = { w_count : int; w_sum : float; w_min : float; w_max : float }

  type t = {
    mutable cur_count : int;
    mutable cur_sum : float;
    mutable cur_min : float;
    mutable cur_max : float;
    mutable closed_rev : window list;
    mutable n_closed : int;
    mutable total : int;
  }

  let make () =
    {
      cur_count = 0;
      cur_sum = 0.0;
      cur_min = Float.infinity;
      cur_max = Float.neg_infinity;
      closed_rev = [];
      n_closed = 0;
      total = 0;
    }

  let observe s x =
    s.cur_count <- s.cur_count + 1;
    s.cur_sum <- s.cur_sum +. x;
    if x < s.cur_min then s.cur_min <- x;
    if x > s.cur_max then s.cur_max <- x;
    s.total <- s.total + 1

  let roll s =
    s.closed_rev <-
      {
        w_count = s.cur_count;
        w_sum = s.cur_sum;
        w_min = s.cur_min;
        w_max = s.cur_max;
      }
      :: s.closed_rev;
    s.n_closed <- s.n_closed + 1;
    s.cur_count <- 0;
    s.cur_sum <- 0.0;
    s.cur_min <- Float.infinity;
    s.cur_max <- Float.neg_infinity

  let windows s = List.rev s.closed_rev
  let window_count s = s.n_closed
  let total s = s.total

  (* Sum over every observation ever made, open window included.  The
     fold runs in a fixed (reverse-registration) order, so the float
     result is bit-stable across runs. *)
  let grand_sum s =
    List.fold_left (fun acc w -> acc +. w.w_sum) s.cur_sum s.closed_rev
end

type instrument =
  | I_counter of Counter.t
  | I_gauge of Gauge.t
  | I_histogram of Histogram.t
  | I_sketch of Sketch.t
  | I_series of Series.t

type value = Int of int | Float of float | Str of string
type event = { time : float; name : string; fields : (string * value) list }

type t = {
  is_enabled : bool;
  trace_enabled : bool;
  mutable clock : unit -> float;
  (* Registration order, newest first.  Lookup is O(#instruments), which
     is fine: get-or-create runs at node construction, never on the hot
     path, and an association list keeps the registry free of hash
     tables (and of their iteration-order pitfalls). *)
  mutable instruments : (string * instrument) list;
  mutable events_rev : event list;
  mutable n_events : int;
  (* Next causal span id; allocation order is trace order, which is
     deterministic per run (DESIGN.md §8). *)
  mutable next_span : int;
}

let zero_clock () = 0.0

let disabled =
  {
    is_enabled = false;
    trace_enabled = false;
    clock = zero_clock;
    instruments = [];
    events_rev = [];
    n_events = 0;
    next_span = 0;
  }

let create ?(clock = zero_clock) ?(trace = false) () =
  {
    is_enabled = true;
    trace_enabled = trace;
    clock;
    instruments = [];
    events_rev = [];
    n_events = 0;
    next_span = 0;
  }

let enabled t = t.is_enabled
let tracing t = t.trace_enabled
let set_clock t f = if t.is_enabled then t.clock <- f

let kind_name = function
  | I_counter _ -> "counter"
  | I_gauge _ -> "gauge"
  | I_histogram _ -> "histogram"
  | I_sketch _ -> "sketch"
  | I_series _ -> "series"

let get_or_create t name ~make ~cast =
  match List.assoc_opt name t.instruments with
  | Some i -> (
      match cast i with
      | Some x -> x
      | None ->
          invalid_arg
            (Printf.sprintf "Obs: %S already registered as a %s" name
               (kind_name i)))
  | None ->
      let i = make () in
      t.instruments <- (name, i) :: t.instruments;
      match cast i with Some x -> x | None -> assert false

let counter t name =
  if not t.is_enabled then Counter.make ()
  else
    get_or_create t name
      ~make:(fun () -> I_counter (Counter.make ()))
      ~cast:(function I_counter c -> Some c | _ -> None)

let gauge t name =
  if not t.is_enabled then Gauge.make ()
  else
    get_or_create t name
      ~make:(fun () -> I_gauge (Gauge.make ()))
      ~cast:(function I_gauge g -> Some g | _ -> None)

let default_edges = [| 64.; 128.; 256.; 512.; 1024.; 2048.; 4096.; 8192.; 16384.; 32768.; 65536. |]

let histogram ?(edges = default_edges) t name =
  if not t.is_enabled then Histogram.make edges
  else
    get_or_create t name
      ~make:(fun () -> I_histogram (Histogram.make edges))
      ~cast:(function I_histogram h -> Some h | _ -> None)

let sketch t name =
  if not t.is_enabled then Sketch.make ()
  else
    get_or_create t name
      ~make:(fun () -> I_sketch (Sketch.make ()))
      ~cast:(function I_sketch s -> Some s | _ -> None)

let series t name =
  if not t.is_enabled then Series.make ()
  else
    get_or_create t name
      ~make:(fun () -> I_series (Series.make ()))
      ~cast:(function I_series s -> Some s | _ -> None)

let roll_series t =
  List.iter
    (fun (_, i) -> match i with I_series s -> Series.roll s | _ -> ())
    t.instruments

let now t = t.clock ()

let trace t ~name fields =
  if t.trace_enabled then begin
    t.events_rev <- { time = t.clock (); name; fields } :: t.events_rev;
    t.n_events <- t.n_events + 1
  end

let events t = List.rev t.events_rev
let event_count t = t.n_events

(* --- Spans --- *)

type span =
  | No_span
  | Span of {
      sid : int;
      sname : string;
      t0 : float;
      begin_fields : (string * value) list;
    }

let no_span = No_span

let span t ~name fields =
  if not t.trace_enabled then No_span
  else begin
    let sid = t.next_span in
    t.next_span <- sid + 1;
    Span { sid; sname = name; t0 = t.clock (); begin_fields = fields }
  end

let span_end ?(fields = []) t sp =
  match sp with
  | No_span -> ()
  | Span { sid; sname; t0; begin_fields } ->
      let dur = t.clock () -. t0 in
      trace t ~name:sname
        (("sid", Int sid)
        :: ("t0", Float t0)
        :: ("dur", Float dur)
        :: (begin_fields @ fields))

(* --- Pull-RTT trackers --- *)

type rtt = {
  r_reg : t;
  r_sketch : Sketch.t;
  r_name : string;
  (* peer -> (request time, open span).  Never iterated (only point
     lookups), so Hashtbl order cannot leak into any observable. *)
  r_pending : (int, float * span) Hashtbl.t;
}

let rtt t ~name =
  {
    r_reg = t;
    r_sketch = sketch t (name ^ "_rtt");
    r_name = name;
    r_pending = Hashtbl.create 16;
  }

let rtt_start r ~node ~peer =
  if r.r_reg.is_enabled then begin
    let sp =
      if r.r_reg.trace_enabled then
        span r.r_reg ~name:r.r_name [ ("node", Int node); ("peer", Int peer) ]
      else No_span
    in
    Hashtbl.replace r.r_pending peer (r.r_reg.clock (), sp)
  end

let rtt_finish r ~peer =
  if r.r_reg.is_enabled then
    match Hashtbl.find_opt r.r_pending peer with
    | Some (t0, sp) ->
        Hashtbl.remove r.r_pending peer;
        Sketch.add r.r_sketch (r.r_reg.clock () -. t0);
        span_end r.r_reg sp
    | None -> ()

(* Fixed-format floats: the same float always renders the same bytes, so
   traces and snapshots diff clean across -j N.  A rendered float always
   carries a '.' or an exponent, so [event_of_json] can tell [Float 3.]
   from [Int 3] and typed round-trips are exact. *)
let float_string x =
  let s = Printf.sprintf "%.12g" x in
  if
    String.exists
      (fun c -> c = '.' || c = 'e' || c = 'E' || c = 'n' || c = 'a')
      s
  then s
  else s ^ ".0"

let escape_json s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let value_to_json = function
  | Int n -> string_of_int n
  | Float x -> float_string x
  | Str s -> Printf.sprintf "\"%s\"" (escape_json s)

let event_to_json ?(extra = []) e =
  let buf = Buffer.create 96 in
  Buffer.add_string buf "{\"t\":";
  Buffer.add_string buf (float_string e.time);
  Buffer.add_string buf ",\"ev\":\"";
  Buffer.add_string buf (escape_json e.name);
  Buffer.add_char buf '"';
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf ",\"";
      Buffer.add_string buf (escape_json k);
      Buffer.add_string buf "\":";
      Buffer.add_string buf (value_to_json v))
    (extra @ e.fields);
  Buffer.add_char buf '}';
  Buffer.contents buf

(* One line at a time, so a trace never has to fit in memory twice: a
   quick-scale broadcast sweep renders well over a gigabyte of JSONL. *)
let output_jsonl ?extra oc t =
  List.iter
    (fun e ->
      output_string oc (event_to_json ?extra e);
      output_char oc '\n')
    (events t)

(* A hand-rolled parser for exactly the JSON subset event_to_json emits:
   one flat object of string/number values per line. *)
let event_of_json line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let skip_ws () =
    while !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t') do incr pos done
  in
  let expect c =
    skip_ws ();
    if peek () = Some c then (incr pos; true) else false
  in
  let parse_string () =
    if not (expect '"') then None
    else begin
      let buf = Buffer.create 16 in
      let rec loop () =
        if !pos >= n then None
        else
          match line.[!pos] with
          | '"' -> incr pos; Some (Buffer.contents buf)
          | '\\' when !pos + 1 < n ->
              let c = line.[!pos + 1] in
              pos := !pos + 2;
              (match c with
              | 'n' -> Buffer.add_char buf '\n'; loop ()
              | 't' -> Buffer.add_char buf '\t'; loop ()
              | 'r' -> Buffer.add_char buf '\r'; loop ()
              | 'u' ->
                  if !pos + 4 <= n then begin
                    (match int_of_string_opt ("0x" ^ String.sub line !pos 4) with
                    | Some code when code < 0x80 ->
                        Buffer.add_char buf (Char.chr code)
                    | _ -> ());
                    pos := !pos + 4;
                    loop ()
                  end
                  else None
              | c -> Buffer.add_char buf c; loop ())
          | c -> incr pos; Buffer.add_char buf c; loop ()
      in
      loop ()
    end
  in
  let parse_number () =
    skip_ws ();
    let start = !pos in
    while
      !pos < n
      && (match line.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr pos
    done;
    if !pos = start then None
    else
      let s = String.sub line start (!pos - start) in
      let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s in
      if is_float then Option.map (fun x -> Float x) (float_of_string_opt s)
      else Option.map (fun i -> Int i) (int_of_string_opt s)
  in
  let parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Option.map (fun s -> Str s) (parse_string ())
    | _ -> parse_number ()
  in
  let rec parse_members acc =
    match parse_string () with
    | None -> None
    | Some key -> (
        if not (expect ':') then None
        else
          match parse_value () with
          | None -> None
          | Some v ->
              let acc = (key, v) :: acc in
              skip_ws ();
              if expect ',' then (skip_ws (); parse_members acc)
              else if expect '}' then Some (List.rev acc)
              else None)
  in
  if not (expect '{') then None
  else
    match parse_members [] with
    | None -> None
    | Some members -> (
        let time =
          match List.assoc_opt "t" members with
          | Some (Float x) -> Some x
          | Some (Int i) -> Some (float_of_int i)
          | _ -> None
        in
        let name =
          match List.assoc_opt "ev" members with
          | Some (Str s) -> Some s
          | _ -> None
        in
        match (time, name) with
        | Some time, Some name ->
            let fields =
              List.filter (fun (k, _) -> k <> "t" && k <> "ev") members
            in
            Some { time; name; fields }
        | _ -> None)

let value_to_text = function
  | Int n -> string_of_int n
  | Float x -> float_string x
  | Str s -> s

(* CSV escaping happens at two levels.  Inside the packed fields cell a
   [k=v] token whose text contains one of the pack metacharacters
   (';' '=' ',' '"' or a newline) is quoted with doubled inner quotes, so
   ';' still unambiguously separates tokens and '=' the key.  Then any
   whole cell containing ',' '"' or a newline is RFC4180-quoted. *)
let pack_meta s =
  String.exists
    (fun c -> c = ';' || c = '=' || c = ',' || c = '"' || c = '\n' || c = '\r')
    s

let quote_token s =
  if not (pack_meta s) then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let csv_cell s =
  if
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let events_to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "time,event,fields\n";
  List.iter
    (fun e ->
      Buffer.add_string buf (float_string e.time);
      Buffer.add_char buf ',';
      Buffer.add_string buf (csv_cell e.name);
      Buffer.add_char buf ',';
      Buffer.add_string buf
        (csv_cell
           (String.concat ";"
              (List.map
                 (fun (k, v) ->
                   quote_token k ^ "=" ^ quote_token (value_to_text v))
                 e.fields)));
      Buffer.add_char buf '\n')
    (events t);
  Buffer.contents buf

let in_order t = List.rev t.instruments

let snapshot t =
  List.filter_map
    (fun (name, i) ->
      match i with
      | I_counter c -> Some (name, float_of_int (Counter.value c))
      | I_gauge g -> Some (name, Gauge.value g)
      | I_histogram _ | I_sketch _ | I_series _ -> None)
    (in_order t)

let histograms t =
  List.filter_map
    (fun (name, i) ->
      match i with I_histogram h -> Some (name, h) | _ -> None)
    (in_order t)

let sketches t =
  List.filter_map
    (fun (name, i) ->
      match i with I_sketch s -> Some (name, s) | _ -> None)
    (in_order t)

let all_series t =
  List.filter_map
    (fun (name, i) ->
      match i with I_series s -> Some (name, s) | _ -> None)
    (in_order t)

let render t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, i) ->
      (match i with
      | I_counter c ->
          Buffer.add_string buf
            (Printf.sprintf "counter    %-32s %d" name (Counter.value c))
      | I_gauge g ->
          Buffer.add_string buf
            (Printf.sprintf "gauge      %-32s %s" name
               (float_string (Gauge.value g)))
      | I_histogram h ->
          let cells =
            let edges = Histogram.edges h and counts = Histogram.bucket_counts h in
            let parts = ref [] in
            Array.iteri
              (fun i c ->
                if c > 0 then
                  let label =
                    if i < Array.length edges then
                      "<=" ^ float_string edges.(i)
                    else ">" ^ float_string edges.(Array.length edges - 1)
                  in
                  parts := Printf.sprintf "%s:%d" label c :: !parts)
              counts;
            String.concat " " (List.rev !parts)
          in
          let pcts =
            if Histogram.count h = 0 then ""
            else
              Printf.sprintf " p50=%s p90=%s p99=%s"
                (float_string (Histogram.quantile h 0.5))
                (float_string (Histogram.quantile h 0.9))
                (float_string (Histogram.quantile h 0.99))
          in
          Buffer.add_string buf
            (Printf.sprintf "histogram  %-32s count=%d sum=%s%s %s" name
               (Histogram.count h)
               (float_string (Histogram.sum h))
               pcts cells)
      | I_sketch s ->
          let pcts =
            if Sketch.count s = 0 then ""
            else
              Printf.sprintf " p50=%s p90=%s p99=%s max=%s"
                (float_string (Sketch.quantile s 0.5))
                (float_string (Sketch.quantile s 0.9))
                (float_string (Sketch.quantile s 0.99))
                (float_string (Sketch.vmax s))
          in
          Buffer.add_string buf
            (Printf.sprintf "sketch     %-32s count=%d sum=%s%s" name
               (Sketch.count s)
               (float_string (Sketch.sum s))
               pcts)
      | I_series s ->
          Buffer.add_string buf
            (Printf.sprintf "series     %-32s windows=%d count=%d sum=%s" name
               (Series.window_count s) (Series.total s)
               (float_string (Series.grand_sum s))));
      Buffer.add_char buf '\n')
    (in_order t);
  if t.trace_enabled then
    Buffer.add_string buf (Printf.sprintf "trace      %-32s %d\n" "events" t.n_events);
  Buffer.contents buf

(* --- Prometheus text exposition (version 0.0.4) --- *)

let prom_name s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    s

let render_prometheus t =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  List.iter
    (fun (name, i) ->
      let n = prom_name name in
      match i with
      | I_counter c ->
          line "# TYPE %s counter" n;
          line "%s %d" n (Counter.value c)
      | I_gauge g ->
          line "# TYPE %s gauge" n;
          line "%s %s" n (float_string (Gauge.value g))
      | I_histogram h ->
          line "# TYPE %s histogram" n;
          let edges = Histogram.edges h
          and counts = Histogram.bucket_counts h in
          let cum = ref 0 in
          Array.iteri
            (fun i c ->
              cum := !cum + c;
              if i < Array.length edges then
                line "%s_bucket{le=\"%s\"} %d" n (float_string edges.(i)) !cum)
            counts;
          line "%s_bucket{le=\"+Inf\"} %d" n (Histogram.count h);
          line "%s_sum %s" n (float_string (Histogram.sum h));
          line "%s_count %d" n (Histogram.count h)
      | I_sketch s ->
          line "# TYPE %s summary" n;
          if Sketch.count s > 0 then begin
            line "%s{quantile=\"0.5\"} %s" n (float_string (Sketch.quantile s 0.5));
            line "%s{quantile=\"0.9\"} %s" n (float_string (Sketch.quantile s 0.9));
            line "%s{quantile=\"0.99\"} %s" n (float_string (Sketch.quantile s 0.99))
          end;
          line "%s_sum %s" n (float_string (Sketch.sum s));
          line "%s_count %d" n (Sketch.count s)
      | I_series s ->
          (* Prometheus has no native windowed type; expose the running
             totals as a gauge pair so scrapes can rate() them. *)
          line "# TYPE %s_total gauge" n;
          line "%s_total %d" n (Series.total s);
          line "# TYPE %s_windows gauge" n;
          line "%s_windows %d" n (Series.window_count s))
    (in_order t);
  Buffer.contents buf
