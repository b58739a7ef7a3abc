type t = { adj : int array array }

(* [mark.(v) = u] records that [v] is already in row [u]: one stamp array
   deduplicates every row, keeping first occurrences in order.  [buf]
   holds the kept entries of the row being built (at most [n]). *)
let dedup_rows n row ~to_int =
  let mark = Array.make n (-1) in
  let buf = Array.make n 0 in
  Array.init n (fun u ->
      let r = row u in
      let len = ref 0 in
      Array.iter
        (fun x ->
          let v = to_int x in
          if v < 0 || v >= n then invalid_arg "Digraph: vertex out of range";
          if v <> u && mark.(v) <> u then begin
            mark.(v) <- u;
            buf.(!len) <- v;
            incr len
          end)
        r;
      Array.sub buf 0 !len)

let of_views ~n view =
  { adj = dedup_rows n view ~to_int:Basalt_proto.Node_id.to_int }

let of_adjacency rows =
  { adj = dedup_rows (Array.length rows) (Array.get rows) ~to_int:Fun.id }

let n g = Array.length g.adj
let out_neighbors g u = g.adj.(u)
let out_degree g u = Array.length g.adj.(u)

let in_degrees g =
  let deg = Array.make (n g) 0 in
  Array.iter (fun row -> Array.iter (fun v -> deg.(v) <- deg.(v) + 1) row) g.adj;
  deg

let edge_count g = Array.fold_left (fun acc row -> acc + Array.length row) 0 g.adj
