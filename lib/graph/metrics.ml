module Rng = Basalt_prng.Rng

let malicious_mask ~is_malicious g = Array.init (Digraph.n g) is_malicious

let correct_vertices mask =
  let out = ref [] in
  for u = Array.length mask - 1 downto 0 do
    if not mask.(u) then out := u :: !out
  done;
  Array.of_list !out

let sample_vertices rng vertices k =
  if Array.length vertices <= k then vertices
  else Rng.sample_without_replacement rng ~k vertices

(* The undirected closure in compressed-row form: the neighbors of [u]
   are [nbr.(off.(u)) .. nbr.(off.(u+1) - 1)], deduplicated.  The
   digraph has no self-loops, so neither does the closure. *)
let undirected g =
  let n = Digraph.n g in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let row = Digraph.out_neighbors g u in
    off.(u + 1) <- off.(u + 1) + Array.length row;
    for i = 0 to Array.length row - 1 do
      off.(row.(i) + 1) <- off.(row.(i) + 1) + 1
    done
  done;
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u + 1) + off.(u)
  done;
  let nbr = Array.make off.(n) 0 in
  let fill = Array.sub off 0 n in
  for u = 0 to n - 1 do
    let row = Digraph.out_neighbors g u in
    for i = 0 to Array.length row - 1 do
      let v = row.(i) in
      nbr.(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      nbr.(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1
    done
  done;
  (* Compact each row in place, dropping repeats with a stamp array
     ([mark.(v) = u]: [v] already kept for [u]). *)
  let mark = Array.make n (-1) in
  let w = ref 0 in
  for u = 0 to n - 1 do
    let lo = off.(u) and hi = off.(u + 1) in
    off.(u) <- !w;
    for i = lo to hi - 1 do
      let v = nbr.(i) in
      if mark.(v) <> u then begin
        mark.(v) <- u;
        nbr.(!w) <- v;
        incr w
      end
    done
  done;
  off.(n) <- !w;
  (off, nbr)

let clustering_coefficient ?(sample = 400) ~rng ~is_malicious g =
  let mal = malicious_mask ~is_malicious g in
  let off, nbr = undirected g in
  let picked = sample_vertices rng (correct_vertices mal) sample in
  if Array.length picked = 0 then 0.0
  else begin
    let mark = Array.make (Digraph.n g) (-1) in
    let total = ref 0.0 in
    for p = 0 to Array.length picked - 1 do
      let u = picked.(p) in
      let lo = off.(u) and hi = off.(u + 1) in
      let d = hi - lo in
      if d >= 2 then begin
        (* Paper convention: malicious nodes are assumed to be all
           connected to one another, so every malicious-malicious pair
           counts.  Every other pair {a, b} counts when the edge exists;
           it is seen once from [a] and once from [b]. *)
        let m = ref 0 in
        for i = lo to hi - 1 do
          let a = nbr.(i) in
          mark.(a) <- u;
          if mal.(a) then incr m
        done;
        let seen = ref 0 in
        for i = lo to hi - 1 do
          let a = nbr.(i) in
          let ma = mal.(a) in
          for j = off.(a) to off.(a + 1) - 1 do
            let b = nbr.(j) in
            if mark.(b) = u && not (ma && mal.(b)) then incr seen
          done
        done;
        let connected = (!m * (!m - 1) / 2) + (!seen / 2) in
        let pairs = d * (d - 1) / 2 in
        total := !total +. (float_of_int connected /. float_of_int pairs)
      end
    done;
    !total /. float_of_int (Array.length picked)
  end

(* Level-synchronous breadth-first search from every sampled correct
   source over the correct-only directed subgraph, with one array queue.
   [seen.(v) >= s] marks [v] as visited by source [s] or later; malicious
   vertices start at [max_int], so one comparison per edge excludes both.
   Distances are small integers, so the integer sum of a level's depth
   times its size equals the float sum of the distances term for term. *)
let mean_path_length ?(sources = 64) ~rng ~is_malicious g =
  let mal = malicious_mask ~is_malicious g in
  let picked = sample_vertices rng (correct_vertices mal) sources in
  let seen = Array.map (fun m -> if m then max_int else -1) mal in
  let queue = Array.make (Digraph.n g) 0 in
  let total = ref 0 and count = ref 0 in
  for s = 0 to Array.length picked - 1 do
    seen.(picked.(s)) <- s;
    queue.(0) <- picked.(s);
    let head = ref 0 and tail = ref 1 and depth = ref 0 in
    while !head < !tail do
      let level_end = !tail in
      incr depth;
      while !head < level_end do
        let row = Digraph.out_neighbors g queue.(!head) in
        incr head;
        for i = 0 to Array.length row - 1 do
          let v = row.(i) in
          if seen.(v) < s then begin
            seen.(v) <- s;
            queue.(!tail) <- v;
            incr tail
          end
        done
      done;
      total := !total + (!depth * (!tail - level_end))
    done;
    count := !count + !tail - 1
  done;
  if !count = 0 then Float.nan
  else float_of_int !total /. float_of_int !count

let indegrees_correct ~is_malicious g =
  let mal = malicious_mask ~is_malicious g in
  let deg = Array.make (Digraph.n g) 0 in
  Array.iteri
    (fun u m ->
      if not m then
        Array.iter
          (fun v -> if not mal.(v) then deg.(v) <- deg.(v) + 1)
          (Digraph.out_neighbors g u))
    mal;
  Array.map (fun u -> deg.(u)) (correct_vertices mal)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else begin
    let idx = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor idx) in
    let hi = min (n - 1) (lo + 1) in
    let frac = idx -. float_of_int lo in
    (float_of_int sorted.(lo) *. (1.0 -. frac))
    +. (float_of_int sorted.(hi) *. frac)
  end

let indegree_decile_spread ~is_malicious g =
  let deg = indegrees_correct ~is_malicious g in
  Array.sort Int.compare deg;
  if Array.length deg = 0 then Float.nan
  else percentile deg 0.9 -. percentile deg 0.1
