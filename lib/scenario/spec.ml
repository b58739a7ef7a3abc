(* The typed scenario-matrix specification (DESIGN.md §12): parsing of
   the (matrix ...) grammar out of Sexp trees plus all static
   validation, so Matrix can expand and run a spec without further
   error handling.  Every diagnostic carries the source position of the
   offending form and renders as file:line:col. *)

module Link = Basalt_engine.Link
module Churn = Basalt_sim.Churn
module Adversary = Basalt_adversary.Adversary
module Node_id = Basalt_proto.Node_id
module Gossip_app = Basalt_experiments.Gossip_app

type protocol = Basalt | Brahms | Sps | Classic
type side = First_half | First of int

type link_fault = {
  lf_loss : Link.Loss.t option;
  lf_latency : Link.Latency.t option;
  lf_dup : float option;
  lf_reorder : float option;
  lf_reorder_window : float option;
}

type fault_form =
  | Link_fault of link_fault
  | Partition_fault of { from_frac : float; until_frac : float; side : side }
  | Outage_fault of { node : int; from_frac : float; until_frac : float }

type churn = {
  churn_rate : float;
  churn_start_frac : float option;
  churn_style : Churn.style option;
}

type settings = {
  n : int option;
  v : int option;
  f : float option;
  force : float option;
  steps : float option;
  protocol : protocol option;
  strategy : Adversary.strategy option;
  latency : Link.Latency.t option;
  loss : Link.Loss.t option;
  faults : fault_form list option;
  churn : churn option;
  measure_every : float option;
  sample_window : int option;
}

let empty_settings =
  {
    n = None;
    v = None;
    f = None;
    force = None;
    steps = None;
    protocol = None;
    strategy = None;
    latency = None;
    loss = None;
    faults = None;
    churn = None;
    measure_every = None;
    sample_window = None;
  }

(* Entry bindings override base bindings field-wise; a fault plan or
   churn model replaces the inherited one wholesale. *)
let merge base over =
  let pick o b = match o with Some _ -> o | None -> b in
  {
    n = pick over.n base.n;
    v = pick over.v base.v;
    f = pick over.f base.f;
    force = pick over.force base.force;
    steps = pick over.steps base.steps;
    protocol = pick over.protocol base.protocol;
    strategy = pick over.strategy base.strategy;
    latency = pick over.latency base.latency;
    loss = pick over.loss base.loss;
    faults = pick over.faults base.faults;
    churn = pick over.churn base.churn;
    measure_every = pick over.measure_every base.measure_every;
    sample_window = pick over.sample_window base.sample_window;
  }

type entry = { label : string; bindings : settings }

type axis = {
  axis_name : string;
  trace_key : string option;
  display_float : bool;
  entries : entry list;
}

type metric =
  | Time
  | Samples_byz
  | Isolated
  | Replacements
  | Delivered_sent
  | Delivered
  | T99
  | Redundancy

(* The grammar keywords, in the order diagnostics list them. *)
let metric_names =
  [
    ("time", Time);
    ("samples_byz", Samples_byz);
    ("isolated", Isolated);
    ("replacements", Replacements);
    ("delivered/sent", Delivered_sent);
    ("delivered", Delivered);
    ("t99", T99);
    ("redundancy", Redundancy);
  ]

let metric_name m = fst (List.find (fun (_, m') -> m' = m) metric_names)

let gossip_metric = function
  | Delivered | T99 | Redundancy -> true
  | Time | Samples_byz | Isolated | Replacements | Delivered_sent -> false

type t = {
  name : string;
  base : settings;
  seeds : int list option;
  axes : axis list;
  within : float;
  app : Gossip_app.params option;
  metrics : (metric * string list) list;
}

let pivot spec =
  match List.rev spec.axes with
  | p :: _ -> p
  | [] -> invalid_arg "Spec.pivot: no axes"

let slug spec =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c | _ -> '_')
    spec.name

(* ------------------------------------------------------------------ *)
(* Parsing helpers                                                     *)

exception Fail of Sexp.pos * string

let fail pos fmt = Printf.ksprintf (fun msg -> raise (Fail (pos, msg))) fmt

let atom_of (s : Sexp.t) ~what =
  match s.desc with
  | Atom a -> a
  | List _ -> fail s.pos "expected %s, got a list" what

let float_of (s : Sexp.t) =
  let a = atom_of s ~what:"a number" in
  match float_of_string_opt a with
  | Some x -> x
  | None -> fail s.pos "bad number '%s'" a

let int_of (s : Sexp.t) =
  let a = atom_of s ~what:"an integer" in
  match int_of_string_opt a with
  | Some x -> x
  | None -> fail s.pos "bad integer '%s'" a

let prob_of (s : Sexp.t) =
  let x = float_of s in
  if x < 0.0 || x > 1.0 then
    fail s.pos "probability '%s' out of [0,1]" (atom_of s ~what:"a number");
  x

(* A form is a list whose head is an atom keyword. *)
let form_of (s : Sexp.t) =
  match s.desc with
  | List ({ desc = Atom head; _ } :: args) -> (head, args, s.pos)
  | List _ -> fail s.pos "expected a (keyword ...) form"
  | Atom a -> fail s.pos "expected a (keyword ...) form, got atom '%s'" a

let arity pos head want (args : Sexp.t list) =
  if List.length args <> want then
    fail pos "(%s ...) takes %d argument%s" head want
      (if want = 1 then "" else "s")

(* ------------------------------------------------------------------ *)
(* Value parsers                                                       *)

let latency_of (s : Sexp.t) =
  match s.desc with
  | Atom "zero" -> Link.Latency.Zero
  | Atom a -> fail s.pos "unknown latency model '%s' (zero|constant|uniform)" a
  | List _ -> (
      let head, args, pos = form_of s in
      match head with
      | "constant" ->
          arity pos head 1 args;
          Link.Latency.Constant (float_of (List.nth args 0))
      | "uniform" ->
          arity pos head 2 args;
          let lo = float_of (List.nth args 0) in
          let hi = float_of (List.nth args 1) in
          Link.Latency.Uniform { lo; hi }
      | _ -> fail pos "unknown latency model '%s' (zero|constant|uniform)" head)

let loss_of (s : Sexp.t) =
  match s.desc with
  | Atom "none" -> Link.Loss.None
  | Atom a -> fail s.pos "unknown loss model '%s' (none|bernoulli|gilbert)" a
  | List _ -> (
      let head, args, pos = form_of s in
      match head with
      | "bernoulli" ->
          arity pos head 1 args;
          Link.Loss.Bernoulli (prob_of (List.nth args 0))
      | "gilbert" ->
          arity pos head 4 args;
          let p = List.map prob_of args in
          Link.Loss.Gilbert_elliott
            {
              p_gb = List.nth p 0;
              p_bg = List.nth p 1;
              good = List.nth p 2;
              bad = List.nth p 3;
            }
      | _ -> fail pos "unknown loss model '%s' (none|bernoulli|gilbert)" head)

let protocol_of (s : Sexp.t) =
  match atom_of s ~what:"a protocol name" with
  | "basalt" -> Basalt
  | "brahms" -> Brahms
  | "sps" -> Sps
  | "classic" -> Classic
  | a -> fail s.pos "unknown protocol '%s' (basalt|brahms|sps|classic)" a

let strategy_of (s : Sexp.t) =
  match s.desc with
  | Atom "flood" -> Adversary.Flood
  | Atom "silent" -> Adversary.Silent
  | Atom a -> fail s.pos "unknown strategy '%s' (flood|silent|eclipse)" a
  | List _ -> (
      let head, args, pos = form_of s in
      match head with
      | "eclipse" ->
          arity pos head 1 args;
          Adversary.Eclipse (Node_id.of_int (int_of (List.nth args 0)))
      | _ -> fail pos "unknown strategy '%s' (flood|silent|eclipse)" head)

let side_of (s : Sexp.t) =
  match s.desc with
  | Atom "first-half" -> First_half
  | Atom a -> fail s.pos "unknown partition side '%s' (first-half|(first K))" a
  | List _ -> (
      let head, args, pos = form_of s in
      match head with
      | "first" ->
          arity pos head 1 args;
          First (int_of (List.nth args 0))
      | _ -> fail pos "unknown partition side '%s' (first-half|(first K))" head)

(* Fractions of the run used by partition/outage windows, so scenario
   files stay valid at every scale. *)
let window_of pos forms =
  let from_frac = ref None and until_frac = ref None in
  let leftover =
    List.filter
      (fun item ->
        let head, args, hpos = form_of item in
        match head with
        | "from-frac" ->
            arity hpos head 1 args;
            from_frac := Some (prob_of (List.nth args 0));
            false
        | "until-frac" ->
            arity hpos head 1 args;
            until_frac := Some (prob_of (List.nth args 0));
            false
        | _ -> true)
      forms
  in
  match (!from_frac, !until_frac) with
  | Some a, Some b ->
      if a >= b then fail pos "empty window: from-frac %g >= until-frac %g" a b;
      (a, b, leftover)
  | _ -> fail pos "a fault window needs (from-frac F) and (until-frac F)"

let fault_form_of (s : Sexp.t) =
  let head, args, pos = form_of s in
  match head with
  | "link" ->
      let lf_loss = ref None
      and lf_latency = ref None
      and lf_dup = ref None
      and lf_reorder = ref None
      and lf_reorder_window = ref None in
      List.iter
        (fun item ->
          let key, kargs, kpos = form_of item in
          match key with
          | "loss" ->
              arity kpos key 1 kargs;
              lf_loss := Some (loss_of (List.nth kargs 0))
          | "latency" ->
              arity kpos key 1 kargs;
              lf_latency := Some (latency_of (List.nth kargs 0))
          | "dup" ->
              arity kpos key 1 kargs;
              lf_dup := Some (prob_of (List.nth kargs 0))
          | "reorder" ->
              arity kpos key 1 kargs;
              lf_reorder := Some (prob_of (List.nth kargs 0))
          | "reorder-window" ->
              arity kpos key 1 kargs;
              lf_reorder_window := Some (float_of (List.nth kargs 0))
          | _ ->
              fail kpos
                "unknown link-fault key '%s' \
                 (loss|latency|dup|reorder|reorder-window)"
                key)
        args;
      Link_fault
        {
          lf_loss = !lf_loss;
          lf_latency = !lf_latency;
          lf_dup = !lf_dup;
          lf_reorder = !lf_reorder;
          lf_reorder_window = !lf_reorder_window;
        }
  | "partition" ->
      let from_frac, until_frac, rest = window_of pos args in
      let side = ref None in
      List.iter
        (fun item ->
          let key, kargs, kpos = form_of item in
          match key with
          | "side" ->
              arity kpos key 1 kargs;
              side := Some (side_of (List.nth kargs 0))
          | _ ->
              fail kpos
                "unknown partition key '%s' (from-frac|until-frac|side)" key)
        rest;
      let side =
        match !side with
        | Some s -> s
        | None -> fail pos "a partition needs (side ...)"
      in
      Partition_fault { from_frac; until_frac; side }
  | "outage" ->
      let from_frac, until_frac, rest = window_of pos args in
      let node = ref None in
      List.iter
        (fun item ->
          let key, kargs, kpos = form_of item in
          match key with
          | "node" ->
              arity kpos key 1 kargs;
              node := Some (int_of (List.nth kargs 0))
          | _ ->
              fail kpos "unknown outage key '%s' (node|from-frac|until-frac)"
                key)
        rest;
      let node =
        match !node with
        | Some n -> n
        | None -> fail pos "an outage needs (node I)"
      in
      Outage_fault { node; from_frac; until_frac }
  | _ -> fail pos "unknown fault form '%s' (link|partition|outage)" head

let churn_of pos (args : Sexp.t list) =
  let rate = ref None and start = ref None and style = ref None in
  List.iter
    (fun item ->
      let key, kargs, kpos = form_of item in
      match key with
      | "rate" ->
          arity kpos key 1 kargs;
          rate := Some (prob_of (List.nth kargs 0))
      | "start-frac" ->
          arity kpos key 1 kargs;
          start := Some (prob_of (List.nth kargs 0))
      | "style" -> (
          arity kpos key 1 kargs;
          match atom_of (List.nth kargs 0) ~what:"a churn style" with
          | "replace" -> style := Some Churn.Replace
          | "crash" -> style := Some Churn.Crash
          | a -> fail kpos "unknown churn style '%s' (replace|crash)" a)
      | _ -> fail kpos "unknown churn key '%s' (rate|start-frac|style)" key)
    args;
  match !rate with
  | Some churn_rate ->
      { churn_rate; churn_start_frac = !start; churn_style = !style }
  | None -> fail pos "churn needs (rate F)"

(* ------------------------------------------------------------------ *)
(* Bindings                                                            *)

let set pos what r x =
  match !r with
  | Some _ -> fail pos "duplicate setting '%s'" what
  | None -> r := Some x

let positive_int (s : Sexp.t) ~what =
  let x = int_of s in
  if x <= 0 then fail s.pos "%s must be positive" what;
  x

let positive_float (s : Sexp.t) ~what =
  let x = float_of s in
  if x <= 0.0 then fail s.pos "%s must be positive" what;
  x

(* [allow_seeds]: (seeds ...) may only appear in (base ...), so every
   pivot group averages over the same seed list. *)
let settings_of ~allow_seeds (forms : Sexp.t list) =
  let n = ref None
  and v = ref None
  and f = ref None
  and force = ref None
  and steps = ref None
  and protocol = ref None
  and strategy = ref None
  and latency = ref None
  and loss = ref None
  and faults = ref None
  and churn = ref None
  and measure_every = ref None
  and sample_window = ref None
  and seeds = ref None in
  List.iter
    (fun item ->
      let key, args, pos = form_of item in
      match key with
      | "n" ->
          arity pos key 1 args;
          set pos key n (positive_int (List.nth args 0) ~what:"network size n")
      | "v" ->
          arity pos key 1 args;
          set pos key v (positive_int (List.nth args 0) ~what:"view size v")
      | "f" ->
          arity pos key 1 args;
          let x = prob_of (List.nth args 0) in
          if x >= 1.0 then
            fail pos "byzantine fraction f must be in [0,1)";
          set pos key f x
      | "force" ->
          arity pos key 1 args;
          let x = float_of (List.nth args 0) in
          if x < 0.0 then fail pos "attack force must be >= 0";
          set pos key force x
      | "steps" ->
          arity pos key 1 args;
          set pos key steps (positive_float (List.nth args 0) ~what:"steps")
      | "protocol" ->
          arity pos key 1 args;
          set pos key protocol (protocol_of (List.nth args 0))
      | "strategy" ->
          arity pos key 1 args;
          set pos key strategy (strategy_of (List.nth args 0))
      | "latency" ->
          arity pos key 1 args;
          set pos key latency (latency_of (List.nth args 0))
      | "loss" ->
          arity pos key 1 args;
          set pos key loss (loss_of (List.nth args 0))
      | "fault" ->
          if args = [] then fail pos "(fault ...) needs at least one form";
          set pos key faults (List.map fault_form_of args)
      | "churn" -> set pos key churn (churn_of pos args)
      | "measure-every" ->
          arity pos key 1 args;
          set pos key measure_every
            (positive_float (List.nth args 0) ~what:"measure-every")
      | "sample-window" ->
          arity pos key 1 args;
          set pos key sample_window
            (positive_int (List.nth args 0) ~what:"sample-window")
      | "seeds" ->
          if not allow_seeds then
            fail pos "(seeds ...) is only allowed in (base ...)";
          if args = [] then fail pos "(seeds ...) needs at least one seed";
          set pos key seeds (List.map int_of args)
      | _ -> fail pos "unknown setting '%s'" key)
    forms;
  ( {
      n = !n;
      v = !v;
      f = !f;
      force = !force;
      steps = !steps;
      protocol = !protocol;
      strategy = !strategy;
      latency = !latency;
      loss = !loss;
      faults = !faults;
      churn = !churn;
      measure_every = !measure_every;
      sample_window = !sample_window;
    },
    !seeds )

(* ------------------------------------------------------------------ *)
(* Axes, app, metrics                                                  *)

let axis_of pos (args : Sexp.t list) =
  match args with
  | [] -> fail pos "(axis ...) needs a name"
  | name_s :: items ->
      let axis_name = atom_of name_s ~what:"an axis name" in
      let trace_key = ref None and display_float = ref false in
      let entries =
        List.filter_map
          (fun item ->
            let head, iargs, ipos = form_of item in
            match head with
            | "trace-key" ->
                arity ipos head 1 iargs;
                set ipos head trace_key
                  (atom_of (List.nth iargs 0) ~what:"a trace key");
                None
            | "display" -> (
                arity ipos head 1 iargs;
                match atom_of (List.nth iargs 0) ~what:"a display mode" with
                | "float" ->
                    display_float := true;
                    None
                | a -> fail ipos "unknown display mode '%s' (float)" a)
            | label ->
                let bindings, _ = settings_of ~allow_seeds:false iargs in
                Some ({ label; bindings }, ipos))
          items
      in
      if entries = [] then fail pos "axis '%s' has no entries" axis_name;
      let seen = Hashtbl.create 8 in
      List.iter
        (fun ({ label; _ }, epos) ->
          if Hashtbl.mem seen label then
            fail epos "duplicate entry '%s' in axis '%s'" label axis_name;
          Hashtbl.replace seen label ())
        entries;
      if !display_float then
        List.iter
          (fun ({ label; _ }, epos) ->
            if Option.is_none (float_of_string_opt label) then
              fail epos
                "axis '%s' has (display float) but entry '%s' is not a number"
                axis_name label)
          entries;
      {
        axis_name;
        trace_key = !trace_key;
        display_float = !display_float;
        entries = List.map fst entries;
      }

let app_of pos (args : Sexp.t list) =
  match args with
  | [ one ] -> (
      let head, gargs, gpos = form_of one in
      match head with
      | "gossip" ->
          let publishes = ref None
          and warmup_frac = ref None
          and payload_bytes = ref None in
          List.iter
            (fun item ->
              let key, kargs, kpos = form_of item in
              match key with
              | "publishes" ->
                  arity kpos key 1 kargs;
                  publishes :=
                    Some (positive_int (List.nth kargs 0) ~what:"publishes")
              | "warmup-frac" ->
                  arity kpos key 1 kargs;
                  warmup_frac := Some (prob_of (List.nth kargs 0))
              | "payload-bytes" ->
                  arity kpos key 1 kargs;
                  payload_bytes :=
                    Some
                      (positive_int (List.nth kargs 0) ~what:"payload-bytes")
              | _ ->
                  fail kpos
                    "unknown gossip key '%s' \
                     (publishes|warmup-frac|payload-bytes)"
                    key)
            gargs;
          (try
             Gossip_app.params ?publishes:!publishes
               ?warmup_frac:!warmup_frac ?payload_bytes:!payload_bytes ()
           with Invalid_argument msg -> fail gpos "%s" msg)
      | _ -> fail gpos "unknown app '%s' (gossip)" head)
  | _ -> fail pos "(app ...) takes exactly one (gossip ...) form"

let metrics_of pos (args : Sexp.t list) =
  if args = [] then fail pos "(metrics ...) needs at least one metric";
  List.map
    (fun item ->
      let head, margs, mpos = form_of item in
      match List.assoc_opt head metric_names with
      | Some m ->
          (m, List.map (fun l -> atom_of l ~what:"a pivot label") margs, mpos)
      | None ->
          fail mpos "unknown metric '%s' (%s)" head
            (String.concat "|" (List.map fst metric_names)))
    args

(* ------------------------------------------------------------------ *)
(* The (matrix ...) form                                               *)

let of_sexp (s : Sexp.t) =
  let head, body, pos = form_of s in
  if head <> "matrix" then fail s.pos "expected a (matrix ...) form";
  let name = ref None
  and base = ref None
  and seeds = ref None
  and axes = ref []
  and pivot_name = ref None
  and within = ref None
  and app = ref None
  and metrics = ref None in
  List.iter
    (fun item ->
      let key, args, kpos = form_of item in
      match key with
      | "name" ->
          arity kpos key 1 args;
          set kpos key name (atom_of (List.nth args 0) ~what:"a matrix name")
      | "base" ->
          if Option.is_some !base then fail kpos "duplicate setting 'base'";
          let bindings, s = settings_of ~allow_seeds:true args in
          base := Some bindings;
          seeds := s
      | "axis" -> axes := axis_of kpos args :: !axes
      | "pivot" ->
          arity kpos key 1 args;
          set kpos key pivot_name
            (atom_of (List.nth args 0) ~what:"an axis name")
      | "within" ->
          arity kpos key 1 args;
          set kpos key within
            (positive_float (List.nth args 0) ~what:"within")
      | "app" -> set kpos key app (app_of kpos args)
      | "metrics" ->
          if Option.is_some !metrics then
            fail kpos "duplicate setting 'metrics'";
          metrics := Some (metrics_of kpos args)
      | _ -> fail kpos "unknown matrix key '%s'" key)
    body;
  let name =
    match !name with Some n -> n | None -> fail pos "missing (name ...)"
  in
  let axes = List.rev !axes in
  if axes = [] then fail pos "a matrix needs at least one (axis ...)";
  let seen = Hashtbl.create 4 in
  List.iter
    (fun ax ->
      if Hashtbl.mem seen ax.axis_name then
        fail pos "duplicate axis '%s'" ax.axis_name;
      Hashtbl.replace seen ax.axis_name ())
    axes;
  let pivot_name =
    match !pivot_name with
    | Some p -> p
    | None -> fail pos "missing (pivot ...)"
  in
  if not (List.exists (fun ax -> ax.axis_name = pivot_name) axes) then
    fail pos "pivot '%s' does not name an axis" pivot_name;
  let last_axis = List.nth axes (List.length axes - 1) in
  if last_axis.axis_name <> pivot_name then
    fail pos "pivot axis '%s' must be the last axis declared" pivot_name;
  let metrics =
    match !metrics with
    | Some ms -> ms
    | None -> fail pos "missing (metrics ...)"
  in
  let pivot_labels = List.map (fun e -> e.label) last_axis.entries in
  List.iter
    (fun (m, labels, mpos) ->
      if gossip_metric m && Option.is_none !app then
        fail mpos "metric '%s' needs (app (gossip ...))" (metric_name m);
      List.iter
        (fun l ->
          if not (List.mem l pivot_labels) then
            fail mpos "metric label '%s' is not an entry of pivot axis '%s'" l
              pivot_name)
        labels)
    metrics;
  let base = Option.value !base ~default:empty_settings in
  (* Every cell must end up with a protocol: either the base binds one,
     or some axis binds one on every entry (merge order makes this
     check exact — see the validation notes in DESIGN.md §12). *)
  let axis_covers ax =
    List.for_all (fun e -> Option.is_some e.bindings.protocol) ax.entries
  in
  if Option.is_none base.protocol && not (List.exists axis_covers axes) then
    fail pos
      "no protocol bound: set (protocol ...) in (base ...) or on every entry \
       of an axis";
  {
    name;
    base;
    seeds = !seeds;
    axes;
    within = Option.value !within ~default:0.25;
    app = !app;
    metrics = List.map (fun (m, labels, _) -> (m, labels)) metrics;
  }

let of_sexps ~file (sexps : Sexp.t list) =
  try
    match sexps with
    | [ s ] -> Ok (of_sexp s)
    | [] ->
        Error
          (Printf.sprintf "%s:1:1: empty file: expected a (matrix ...) form"
             file)
    | _ :: extra :: _ ->
        raise (Fail (extra.pos, "expected a single (matrix ...) form"))
  with Fail (pos, msg) ->
    Error (Printf.sprintf "%s:%d:%d: %s" file pos.Sexp.line pos.Sexp.col msg)

let of_string ?(file = "<string>") src =
  match Sexp.parse_string src with
  | Error e -> Error (Sexp.format_error ~file e)
  | Ok sexps -> of_sexps ~file sexps

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error (`Unreadable msg)
  | src -> (
      match of_string ~file:path src with
      | Ok spec -> Ok spec
      | Error msg -> Error (`Invalid msg))
