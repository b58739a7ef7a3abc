type t = Xoshiro256.t

let create ~seed = Xoshiro256.create (Splitmix64.mix (Int64.of_int seed))
let copy = Xoshiro256.copy
let int64 = Xoshiro256.next

let split t =
  let s0 = Xoshiro256.next t in
  let s1 = Xoshiro256.next t in
  let s2 = Xoshiro256.next t in
  let s3 = Xoshiro256.next t in
  (* Remix through SplitMix64 so the child stream is decorrelated from the
     parent even though it is seeded from the parent's outputs. *)
  let m = Splitmix64.mix in
  if m s0 = 0L && m s1 = 0L && m s2 = 0L && m s3 = 0L then
    Xoshiro256.of_state 1L 0L 0L 0L
  else Xoshiro256.of_state (m s0) (m s1) (m s2) (m s3)

let bits t = Xoshiro256.next_int t land max_int

(* The integer draws are the simulator's innermost loop; they allocate
   nothing (no boxed [int64], no closure for the rejection loop). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then bits t land (bound - 1)
  else begin
    let threshold = max_int - (max_int mod bound) in
    let r = ref (bits t) in
    while !r >= threshold do
      r := bits t
    done;
    !r mod bound
  end

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

let float t x = Float.of_int (Xoshiro256.next_top t 53) *. 0x1.0p-53 *. x
let bool t = Xoshiro256.next_int t land 1 = 1
let bernoulli t ~p = float t 1.0 < p

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_indices t ~k ~n =
  if n < 0 then invalid_arg "Rng.sample_indices: negative n";
  let k = min k n in
  if k <= 0 then [||]
  else if 3 * k >= n then begin
    (* Dense case: partial Fisher–Yates over an explicit index array. *)
    let idx = Array.init n (fun i -> i) in
    for i = 0 to k - 1 do
      let j = int_in_range t ~lo:i ~hi:(n - 1) in
      let tmp = idx.(i) in
      idx.(i) <- idx.(j);
      idx.(j) <- tmp
    done;
    Array.sub idx 0 k
  end
  else begin
    (* Sparse case: rejection into a hash table, k << n. *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let candidate = int t n in
      if not (Hashtbl.mem seen candidate) then begin
        Hashtbl.add seen candidate ();
        out.(!filled) <- candidate;
        incr filled
      end
    done;
    out
  end

let sample_without_replacement t ~k a =
  let idx = sample_indices t ~k ~n:(Array.length a) in
  Array.map (fun i -> a.(i)) idx

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  let u = 1.0 -. float t 1.0 in
  -.log u /. rate

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p out of (0,1]";
  if p = 1.0 then 0
  else
    let u = 1.0 -. float t 1.0 in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))
