module Rng = Basalt_prng.Rng

(* ------------------------------------------------------------------ *)
(* Lazily-evaluated rose trees: a generated value plus its shrink
   candidates, ordered most-aggressive first so the greedy runner tries
   big simplifications before small ones. *)

module Tree = struct
  type 'a t = Node of 'a * 'a t Seq.t

  let root (Node (x, _)) = x
  let children (Node (_, cs)) = cs
  let rec map f (Node (x, cs)) = Node (f x, Seq.map (map f) cs)

  let rec filter p (Node (x, cs)) =
    Node
      ( x,
        Seq.filter_map
          (fun c -> if p (root c) then Some (filter p c) else None)
          cs )
end

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

module Gen = struct
  type 'a t = Rng.t -> 'a Tree.t

  exception Generation_failure of string

  let generate g ~rng = Tree.root (g rng)
  let return x : 'a t = fun _rng -> Tree.Node (x, Seq.empty)
  let map f (g : 'a t) : 'b t = fun rng -> Tree.map f (g rng)

  (* --- integers, towards the origin by halving --- *)

  let rec towards_int ~origin x =
    let candidates =
      if x = origin then Seq.empty
      else
        (* x - d, x - d/2, x - d/4, …: the first candidate is the origin
           itself, later ones close in on x. *)
        let rec halve d () =
          if d = 0 then Seq.Nil else Seq.Cons (x - d, halve (d / 2))
        in
        halve (x - origin)
    in
    Tree.Node (x, Seq.map (towards_int ~origin) candidates)

  let int_range lo hi : int t =
    if hi < lo then invalid_arg "Gen.int_range: hi < lo";
    let origin = if lo > 0 then lo else if hi < 0 then hi else 0 in
    let draw =
      if hi - lo + 1 > 0 then fun rng -> Rng.int_in_range rng ~lo ~hi
      else
        (* The span overflows the int (e.g. [min_int, max_int]), so
           rejection-sample a raw 63-bit draw; the range covers more
           than half the int space, so this takes < 2 tries expected. *)
        fun rng ->
        let rec go () =
          let x = Int64.to_int (Rng.int64 rng) in
          if x >= lo && x <= hi then x else go ()
        in
        go ()
    in
    fun rng -> towards_int ~origin (draw rng)

  let nat ~max = int_range 0 max

  let bool : bool t =
   fun rng ->
    if Rng.bool rng then
      Tree.Node (true, Seq.return (Tree.Node (false, Seq.empty)))
    else Tree.Node (false, Seq.empty)

  (* --- floats, towards lo by halving the gap --- *)

  let float_epsilon = 1e-9

  let rec towards_float ~origin x =
    let candidates =
      if Float.abs (x -. origin) <= float_epsilon then Seq.empty
      else
        let rec halve d () =
          if Float.abs d <= float_epsilon then Seq.Nil
          else Seq.Cons (x -. d, halve (d /. 2.))
        in
        halve (x -. origin)
    in
    Tree.Node (x, Seq.map (towards_float ~origin) candidates)

  let float_range lo hi : float t =
    if hi < lo then invalid_arg "Gen.float_range: hi < lo";
    fun rng ->
      if hi <= lo then Tree.Node (lo, Seq.empty)
      else towards_float ~origin:lo (lo +. Rng.float rng (hi -. lo))

  (* --- products: both sides shrink independently --- *)

  let rec tree_pair (Tree.Node (a, as_) as ta) (Tree.Node (b, bs) as tb) =
    Tree.Node
      ( (a, b),
        Seq.append
          (Seq.map (fun a' -> tree_pair a' tb) as_)
          (Seq.map (fun b' -> tree_pair ta b') bs) )

  let pair (ga : 'a t) (gb : 'b t) : ('a * 'b) t =
   fun rng ->
    let ta = ga rng in
    let tb = gb rng in
    tree_pair ta tb

  let map2 f ga gb = map (fun (a, b) -> f a b) (pair ga gb)

  let triple ga gb gc =
    map (fun (a, (b, c)) -> (a, b, c)) (pair ga (pair gb gc))

  (* --- bind: shrink the outer value first, re-running the inner
     generator on a copy of its stream so every candidate is generated
     deterministically; then shrink the inner value. --- *)

  let bind (g : 'a t) (f : 'a -> 'b t) : 'b t =
   fun rng ->
    let inner_rng = Rng.split rng in
    let outer = g rng in
    let rec expand (Tree.Node (x, xs)) =
      let (Tree.Node (y, ys)) = f x (Rng.copy inner_rng) in
      Tree.Node (y, Seq.append (Seq.map expand xs) ys)
    in
    expand outer

  (* --- choice: the alternative index shrinks towards the head --- *)

  let oneof (gs : 'a t list) : 'a t =
    match gs with
    | [] -> invalid_arg "Gen.oneof: empty list"
    | [ g ] -> g
    | gs ->
        let arr = Array.of_list gs in
        bind (int_range 0 (Array.length arr - 1)) (fun i -> arr.(i))

  let oneofl xs =
    match xs with
    | [] -> invalid_arg "Gen.oneofl: empty list"
    | xs ->
        let arr = Array.of_list xs in
        map (fun i -> arr.(i)) (int_range 0 (Array.length arr - 1))

  let frequency (ws : (int * 'a t) list) : 'a t =
    if ws = [] then invalid_arg "Gen.frequency: empty list";
    let total = List.fold_left (fun acc (w, _) -> acc + w) 0 ws in
    if total <= 0 then invalid_arg "Gen.frequency: non-positive total weight";
    (* Map a ticket to an alternative index, so index shrinking still
       moves towards the first (usually simplest) alternative. *)
    let arr = Array.of_list ws in
    let pick ticket =
      let rec go i remaining =
        let w, g = arr.(i) in
        if remaining < w || i = Array.length arr - 1 then g
        else go (i + 1) (remaining - w)
      in
      go 0 ticket
    in
    bind (int_range 0 (total - 1)) pick

  let such_that ?(retries = 100) p (g : 'a t) : 'a t =
   fun rng ->
    let rec attempt n =
      if n = 0 then
        raise
          (Generation_failure
             (Printf.sprintf "Gen.such_that: no value after %d retries" retries))
      else
        let t = g rng in
        if p (Tree.root t) then Tree.filter p t else attempt (n - 1)
    in
    attempt retries

  (* --- lists: shrink by dropping chunks, then single elements, then
     by shrinking elements in place --- *)

  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: tl -> x :: take (n - 1) tl

  let rec drop n = function
    | [] -> []
    | l when n <= 0 -> l
    | _ :: tl -> drop (n - 1) tl

  let remove_at i l = take i l @ drop (i + 1) l

  let replace_at i c l = take i l @ (c :: drop (i + 1) l)

  let list_candidates ~min_len ts =
    let n = List.length ts in
    let drops =
      if n <= min_len then Seq.empty
      else
        let halves =
          (* Dropping half the list first makes shrinking long lists
             logarithmic instead of linear. *)
          if n >= 4 && n - (n / 2) >= min_len then
            List.to_seq [ take (n / 2) ts; drop (n / 2) ts ]
          else Seq.empty
        in
        Seq.append halves (Seq.init n (fun i -> remove_at i ts))
    in
    let elt_shrinks =
      Seq.concat
        (Seq.init n (fun i ->
             let ti = List.nth ts i in
             Seq.map (fun c -> replace_at i c ts) (Tree.children ti)))
    in
    Seq.append drops elt_shrinks

  let rec list_tree ~min_len ts =
    Tree.Node
      ( List.map Tree.root ts,
        Seq.map (list_tree ~min_len) (list_candidates ~min_len ts) )

  let list ?(min_len = 0) ~max_len (g : 'a t) : 'a list t =
    if min_len < 0 || max_len < min_len then
      invalid_arg "Gen.list: need 0 <= min_len <= max_len";
    fun rng ->
      let n = Rng.int_in_range rng ~lo:min_len ~hi:max_len in
      list_tree ~min_len (List.init n (fun _ -> g rng))

  let list_repeat n (g : 'a t) : 'a list t =
    if n < 0 then invalid_arg "Gen.list_repeat: negative length";
    fun rng -> list_tree ~min_len:n (List.init n (fun _ -> g rng))

  let array ?min_len ~max_len g =
    map Array.of_list (list ?min_len ~max_len g)

  let bytes ?min_len ~max_len () : bytes t =
    map
      (fun bs ->
        let b = Bytes.create (List.length bs) in
        List.iteri (fun i v -> Bytes.set_uint8 b i v) bs;
        b)
      (list ?min_len ~max_len (int_range 0 255))
end

(* ------------------------------------------------------------------ *)
(* Domain generators                                                   *)

module Gens = struct
  module Node_id = Basalt_proto.Node_id
  module Message = Basalt_proto.Message
  module Link = Basalt_engine.Link

  let node_id ~max = Gen.map Node_id.of_int (Gen.nat ~max)

  let view ?min_len ~max_len ~max_id () =
    Gen.array ?min_len ~max_len (node_id ~max:max_id)

  let mid ?(max_id = (1 lsl 48) - 1) () =
    Gen.map2
      (fun origin seqno -> { Message.origin; seqno })
      (node_id ~max:max_id)
      (Gen.nat ~max:0xFFFF_FFFF)

  let message ?(max_ids = 40) ?(max_id = (1 lsl 48) - 1) () =
    let ids = view ~max_len:max_ids ~max_id () in
    let mids = Gen.array ~max_len:max_ids (mid ~max_id ()) in
    Gen.oneof
      [
        Gen.return Message.Pull_request;
        Gen.map (fun v -> Message.Pull_reply v) ids;
        Gen.map (fun v -> Message.Push v) ids;
        Gen.map (fun i -> Message.Push_id i) (node_id ~max:max_id);
        Gen.map2
          (fun (m, hops) payload -> Message.Gossip { mid = m; hops; payload })
          (Gen.pair (mid ~max_id ()) (Gen.nat ~max:0xFFFF))
          (Gen.bytes ~max_len:64 ());
        Gen.map (fun ms -> Message.Ihave ms) mids;
        Gen.map (fun ms -> Message.Iwant ms) mids;
        Gen.return Message.Graft;
        Gen.return Message.Prune;
      ]

  let latency =
    Gen.oneof
      [
        Gen.return Link.Latency.Zero;
        Gen.map (fun d -> Link.Latency.Constant d) (Gen.float_range 0. 5.);
        Gen.map2
          (fun a b ->
            let lo = Float.min a b and hi = Float.max a b in
            Link.Latency.Uniform { lo; hi })
          (Gen.float_range 0. 5.) (Gen.float_range 0. 5.);
      ]

  let loss =
    Gen.oneof
      [
        Gen.return Link.Loss.None;
        Gen.map (fun p -> Link.Loss.Bernoulli p) (Gen.float_range 0. 0.9);
      ]

  type schedule = {
    nodes : int;
    registered : bool list;
    sends : (float * int * int) list;
    horizon : float;
  }

  let schedule ~max_nodes ~max_sends =
    Gen.bind (Gen.int_range 1 max_nodes) (fun nodes ->
        let send =
          Gen.triple (Gen.float_range 0. 100.)
            (Gen.nat ~max:(nodes - 1))
            (Gen.nat ~max:(nodes - 1))
        in
        Gen.map2
          (fun registered sends ->
            { nodes; registered; sends; horizon = 10_000. })
          (Gen.list_repeat nodes Gen.bool)
          (Gen.list ~max_len:max_sends send))

  (* --- trace events --- *)

  module Obs = Basalt_obs.Obs

  (* Dyadic rationals (2m+1) / 2^(e+1): at most 12 significant decimal
     digits, so the registry's fixed %.12g rendering is lossless and
     JSON round-trips compare with (=). *)
  let dyadic =
    Gen.map2
      (fun m e -> (float_of_int m +. 0.5) /. float_of_int (1 lsl e))
      (Gen.nat ~max:4096) (Gen.nat ~max:8)

  let obs_string =
    (* Full byte range: escape_json covers control chars and quotes. *)
    Gen.map
      (fun codes ->
        String.init (List.length codes) (fun i -> Char.chr (List.nth codes i)))
      (Gen.list ~max_len:12 (Gen.int_range 0 255))

  let obs_value =
    Gen.oneof
      [
        Gen.map (fun n -> Obs.Int n) (Gen.int_range (-100_000) 100_000);
        Gen.map (fun x -> Obs.Float x) dyadic;
        Gen.map (fun s -> Obs.Str s) obs_string;
      ]

  let obs_event ?(max_fields = 8) () =
    let field =
      Gen.pair
        (* "k" prefix keeps generated keys off the reserved "t"/"ev". *)
        (Gen.map (fun s -> "k" ^ s) obs_string)
        obs_value
    in
    Gen.map2
      (fun (time, name) fields -> { Obs.time; name; fields })
      (Gen.pair dyadic obs_string)
      (Gen.list ~max_len:max_fields field)
end

(* ------------------------------------------------------------------ *)
(* Printers                                                            *)

module Print = struct
  let int = string_of_int
  let float x = Printf.sprintf "%.17g" x
  let bool = string_of_bool
  let string s = Printf.sprintf "%S" s

  let bytes_hex b =
    let buf = Buffer.create ((2 * Bytes.length b) + 16) in
    Buffer.add_string buf (Printf.sprintf "%d bytes: " (Bytes.length b));
    Bytes.iter
      (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c)))
      b;
    Buffer.contents buf

  let list pe l = "[" ^ String.concat "; " (List.map pe l) ^ "]"

  let array pe a =
    "[|" ^ String.concat "; " (Array.to_list (Array.map pe a)) ^ "|]"

  let pair pa pb (a, b) = Printf.sprintf "(%s, %s)" (pa a) (pb b)

  let triple pa pb pc (a, b, c) =
    Printf.sprintf "(%s, %s, %s)" (pa a) (pb b) (pc c)
end

(* ------------------------------------------------------------------ *)
(* Properties and the runner                                           *)

type 'a cell = {
  prop_name : string;
  gen : 'a Gen.t;
  law : 'a -> bool;
  print : 'a -> string;
  count : int;
}

type t = Prop : 'a cell -> t

let default_count = 200
let default_seed_value = 0xBA5A17

let prop ?(count = default_count) ?print ~name gen law =
  if count <= 0 then invalid_arg "Check.prop: count must be positive";
  let print =
    match print with
    | Some p -> p
    | None -> fun _ -> "<counterexample not printable; pass ~print>"
  in
  Prop { prop_name = name; gen; law; print; count }

let name (Prop c) = c.prop_name

type failure = {
  suite : string;
  property : string;
  seed : int;
  case : int;
  shrink_steps : int;
  counterexample : string;
  reason : string;
}

type outcome = Pass of int | Fail of failure

let parse_int_env var =
  match Sys.getenv_opt var with
  | None -> None
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some n -> Some n
    | None -> None)

let default_seed () =
  match parse_int_env "BASALT_CHECK_SEED" with
  | Some s -> s
  | None -> default_seed_value

(* Alcotest's -q / --quick-tests flag reaches us through the test
   binary's argv; a property stays `Quick (so it still runs) but cuts
   its case budget by 10x. *)
let quick_mode =
  lazy
    (Array.exists
       (fun a -> String.equal a "-q" || String.equal a "--quick-tests")
       Sys.argv)

let effective_count count =
  let count =
    match parse_int_env "BASALT_CHECK_COUNT" with
    | Some n when n > count -> n
    | _ -> count
  in
  if Lazy.force quick_mode then max 10 (count / 10) else count

(* FNV-1a over the (suite, property) pair, mixed with the base seed:
   every property owns an independent pinned stream, and renaming a
   property or moving it between suites re-rolls its cases instead of
   silently shifting its neighbours'. *)
let derive_seed ~seed ~suite ~prop_name =
  let h = Basalt_hashing.Rank.fnv1a64 (suite ^ "/" ^ prop_name) in
  let mixed = Basalt_prng.Splitmix64.mix (Int64.logxor h (Int64.of_int seed)) in
  Int64.to_int mixed land max_int

let failure_report f =
  String.concat "\n"
    [
      "property failed";
      Printf.sprintf "  suite:          %s" f.suite;
      Printf.sprintf "  property:       %s" f.property;
      Printf.sprintf "  seed:           %d" f.seed;
      Printf.sprintf "  failing case:   #%d (after %d shrink steps)" f.case
        f.shrink_steps;
      Printf.sprintf "  reason:         %s" f.reason;
      Printf.sprintf "  counterexample: %s" f.counterexample;
      Printf.sprintf "  replay:         BASALT_CHECK_SEED=%d <this test binary>"
        f.seed;
    ]

let slug s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '-')
    s

(* CI fuzz runs set BASALT_CHECK_DIR to collect shrunk counterexamples
   as build artifacts; outside CI the variable is unset and this is a
   no-op. *)
let dump_failure f =
  match Sys.getenv_opt "BASALT_CHECK_DIR" with
  | None -> ()
  | Some dir when Sys.file_exists dir && Sys.is_directory dir ->
      let file =
        Printf.sprintf "%s.%s.seed%d.txt" (slug f.suite) (slug f.property)
          f.seed
      in
      let oc = open_out (Filename.concat dir file) in
      output_string oc (failure_report f);
      output_char oc '\n';
      close_out oc
  | Some _ -> ()

let eval law x =
  match law x with
  | true -> Ok ()
  | false -> Error "returned false"
  | exception e -> Error (Printexc.to_string e)

(* Greedy descent: repeatedly move to the first failing shrink
   candidate.  The fuel bounds the total number of law evaluations spent
   shrinking, so pathological shrink spaces cannot hang a test run. *)
let max_shrink_evals = 2000

let shrink law tree reason0 =
  let fuel = ref max_shrink_evals in
  let rec go t reason steps =
    let rec first_failing s =
      if !fuel <= 0 then None
      else
        match s () with
        | Seq.Nil -> None
        | Seq.Cons (c, tl) -> (
            decr fuel;
            match eval law (Tree.root c) with
            | Error r -> Some (c, r)
            | Ok () -> first_failing tl)
    in
    match first_failing (Tree.children t) with
    | Some (c, r) -> go c r (steps + 1)
    | None -> (Tree.root t, reason, steps)
  in
  go tree reason0 0

let run ?seed ~suite (Prop c) =
  let seed = match seed with Some s -> s | None -> default_seed () in
  let rng =
    Rng.create ~seed:(derive_seed ~seed ~suite ~prop_name:c.prop_name)
  in
  let budget = effective_count c.count in
  let fail ~case ~shrink_steps ~counterexample ~reason =
    let f =
      {
        suite;
        property = c.prop_name;
        seed;
        case;
        shrink_steps;
        counterexample;
        reason;
      }
    in
    dump_failure f;
    Fail f
  in
  let rec loop i =
    if i >= budget then Pass budget
    else
      let case_rng = Rng.split rng in
      match c.gen case_rng with
      | exception e ->
          fail ~case:i ~shrink_steps:0 ~counterexample:"<generator raised>"
            ~reason:(Printexc.to_string e)
      | tree -> (
          match eval c.law (Tree.root tree) with
          | Ok () -> loop (i + 1)
          | Error reason0 ->
              let x, reason, steps = shrink c.law tree reason0 in
              fail ~case:i ~shrink_steps:steps ~counterexample:(c.print x)
                ~reason)
  in
  loop 0

let to_alcotest ?(speed = `Quick) ~suite p =
  Alcotest.test_case (name p) speed (fun () ->
      match run ~suite p with
      | Pass _ -> ()
      | Fail f -> Alcotest.fail (failure_report f))

let suite name props = (name, List.map (to_alcotest ~suite:name) props)
