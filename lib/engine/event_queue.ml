(* Heap cells are a variant so that vacated slots can hold the constant
   [Empty] instead of a stale entry: a delivered event — and the message
   it carries — must not stay reachable from the queue after [pop]. *)
type 'a cell = Empty | Entry of { time : float; seq : int; value : 'a }

type 'a t = {
  mutable heap : 'a cell array;  (* slots at indices >= [len] are [Empty] *)
  mutable len : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; len = 0; next_seq = 0 }

let before a b =
  match (a, b) with
  | Entry a, Entry b -> a.time < b.time || (a.time = b.time && a.seq < b.seq)
  | Entry _, Empty -> true
  | Empty, _ -> false

let grow q =
  let capacity = Array.length q.heap in
  if q.len = capacity then begin
    let heap = Array.make (max 16 (2 * capacity)) Empty in
    Array.blit q.heap 0 heap 0 q.len;
    q.heap <- heap
  end

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before q.heap.(i) q.heap.(parent) then begin
      let tmp = q.heap.(i) in
      q.heap.(i) <- q.heap.(parent);
      q.heap.(parent) <- tmp;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let left = (2 * i) + 1 in
  let right = left + 1 in
  let smallest = ref i in
  if left < q.len && before q.heap.(left) q.heap.(!smallest) then
    smallest := left;
  if right < q.len && before q.heap.(right) q.heap.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    let tmp = q.heap.(i) in
    q.heap.(i) <- q.heap.(!smallest);
    q.heap.(!smallest) <- tmp;
    sift_down q !smallest
  end

let push q ~time value =
  let entry = Entry { time; seq = q.next_seq; value } in
  q.next_seq <- q.next_seq + 1;
  grow q;
  q.heap.(q.len) <- entry;
  q.len <- q.len + 1;
  sift_up q (q.len - 1)

let pop q =
  match q.heap with
  | [||] -> None
  | heap -> (
      match heap.(0) with
      | Empty -> None
      | Entry top ->
          q.len <- q.len - 1;
          heap.(0) <- heap.(q.len);
          heap.(q.len) <- Empty;
          if q.len > 0 then sift_down q 0;
          Some (top.time, top.value))

let peek_time q =
  if q.len = 0 then None
  else match q.heap.(0) with Entry e -> Some e.time | Empty -> None

let size q = q.len
let is_empty q = q.len = 0
