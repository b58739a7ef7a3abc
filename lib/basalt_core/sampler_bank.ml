module Node_id = Basalt_proto.Node_id
module Rank = Basalt_hashing.Rank

(* Candidate id -> clock value at its last offer.  Monomorphic over [int]
   so a lookup runs this multiply-shift instead of the polymorphic
   [caml_hash]; the multiplication spreads strided identifiers over the
   low bits [Hashtbl] indexes by. *)
module Seen = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = (x * 0x2545F4914F6CDD1D) lsr 20
end)

(* Slot [i] is [(seeds.(i), holders.(i), ranks.(i), stamps.(i))]: flat
   arrays, so an offer is one kernel call per slot over unboxed candidate
   arrays instead of one record (and one rank call) per (slot, id).

   [clock] counts slot resets and [stamps.(i)] records the clock value at
   which slot [i]'s seed was drawn.  With the seen-cache on, [seen] maps a
   candidate to the clock value at which it was last offered to every
   slot.  Re-offering a candidate to an unchanged slot is a no-op (a
   slot's best rank only decreases between resets), so a candidate seen
   at clock [s] is ranked only against slots with [stamps.(i) > s].
   Without the cache every candidate carries [since = -1] and is ranked
   everywhere. *)
type t = {
  backend : Rank.backend;
  exclude : int;  (* identifier never offered; -1 when none *)
  seeds : Rank.seed array;
  holders : int array;  (* holders.(i) < 0 means slot i is empty *)
  ranks : int array;  (* max_int when empty *)
  stamps : int array;
  mutable clock : int;
  seen : int Seen.t option;
  (* Reusable batch scratch (grown on demand). *)
  mutable ids : int array;
  mutable digests : int array;
  mutable since : int array;
}

let create ?(seen_cache = false) ?exclude backend rng ~slots =
  {
    backend;
    exclude = (match exclude with Some id -> Node_id.to_int id | None -> -1);
    seeds = Array.init slots (fun _ -> Rank.fresh backend rng);
    holders = Array.make slots (-1);
    ranks = Array.make slots max_int;
    stamps = Array.make slots 0;
    clock = 0;
    seen = (if seen_cache then Some (Seen.create 64) else None);
    ids = [||];
    digests = [||];
    since = [||];
  }

let length t = Array.length t.holders

let ensure_capacity t n =
  if Array.length t.ids < n then begin
    let cap = Int.max n (2 * Array.length t.ids) in
    t.ids <- Array.make cap 0;
    t.digests <- Array.make cap 0;
    t.since <- Array.make cap (-1)
  end

(* Intake of one candidate at scratch position [len]: drop the excluded
   id and, with the seen-cache, any candidate already offered to every
   current seed (which also dedups within a batch).  Returns the new
   scratch length. *)
let admit t cand len =
  if Int.equal cand t.exclude then len
  else
    let last =
      match t.seen with
      | None -> -1
      | Some seen -> (
          match Seen.find_opt seen cand with Some s -> s | None -> -1)
    in
    if Int.compare last t.clock < 0 then begin
      Array.unsafe_set t.ids len cand;
      Array.unsafe_set t.digests len (Rank.digest cand);
      Array.unsafe_set t.since len last;
      (match t.seen with
      | Some seen -> Seen.replace seen cand t.clock
      | None -> ());
      len + 1
    end
    else len

let offer t (batch : Node_id.t array) =
  let n = Array.length batch in
  ensure_capacity t n;
  let len = ref 0 in
  for j = 0 to n - 1 do
    len := admit t (Array.unsafe_get batch j :> int) !len
  done;
  (* Slot-major pass: one kernel call per slot over the admitted batch. *)
  let len = !len and evals = ref 0 in
  if len > 0 then
    for i = 0 to Array.length t.seeds - 1 do
      evals :=
        !evals
        + Rank.offer_slot (Array.unsafe_get t.seeds i) ~ids:t.ids
            ~digests:t.digests ~since:t.since ~len
            ~stamp:(Array.unsafe_get t.stamps i) ~ranks:t.ranks
            ~holders:t.holders i
    done;
  !evals

let reset t rng i =
  t.seeds.(i) <- Rank.fresh t.backend rng;
  t.holders.(i) <- -1;
  t.ranks.(i) <- max_int;
  t.clock <- t.clock + 1;
  t.stamps.(i) <- t.clock

(* Past this size the seen-cache is swept of entries older than every
   slot's seed (they carry no information: such a candidate needs
   re-evaluation everywhere, same as an absent entry).  Round-robin
   resets cycle through all slots, so entries go stale at protocol speed
   and the cache stays O(candidates per slot lifetime). *)
let prune_seen t =
  match t.seen with
  | Some seen when Seen.length seen > (16 * length t) + 64 ->
      let min_stamp = Array.fold_left Int.min max_int t.stamps in
      Seen.filter_map_inplace
        (fun _ s -> if Int.compare s min_stamp < 0 then None else Some s)
        seen
  | Some _ | None -> ()

let peer t i =
  let h = t.holders.(i) in
  if h < 0 then None else Some (Node_id.of_int h)

let rank t i = if t.holders.(i) < 0 then None else Some t.ranks.(i)

let peers t =
  let holders = t.holders in
  let filled = ref 0 in
  for i = 0 to Array.length holders - 1 do
    if holders.(i) >= 0 then incr filled
  done;
  let out = Array.make !filled (Node_id.of_int 0) in
  let k = ref 0 in
  for i = 0 to Array.length holders - 1 do
    let h = holders.(i) in
    if h >= 0 then begin
      out.(!k) <- Node_id.of_int h;
      incr k
    end
  done;
  out
