(* Tests for basalt.hashing: SipHash, mixers, rank functions. *)

open Basalt_hashing

let check_i64 = Alcotest.(check int64)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The reference-implementation test key: k = 000102...0f (little
   endian words). *)
let ref_key = Siphash.key_of_ints 0x0706050403020100L 0x0F0E0D0C0B0A0908L

(* Expected SipHash-2-4 outputs for inputs 00, 00 01, 00 01 02, ... taken
   from the reference implementation's vectors_sip64 table (converted from
   output bytes to little-endian u64). *)
let siphash24_vector len =
  match len with
  | 0 -> 0x726FDB47DD0E0E31L
  | 1 -> 0x74F839C593DC67FDL
  | 2 -> 0x0D6C8009D9A94F5AL
  | 3 -> 0x85676696D7FB7E2DL
  | 4 -> 0xCF2794E0277187B7L
  | 5 -> 0x18765564CD99A68DL
  | 6 -> 0xCBC9466E58FEE3CEL
  | 7 -> 0xAB0200F58B01D137L
  | 8 -> 0x93F5F5799A932462L
  | 15 -> 0xA129CA6149BE45E5L
  | _ -> invalid_arg "no vector"

let input_bytes len = Bytes.init len Char.chr

let siphash_reference_vectors () =
  List.iter
    (fun len ->
      check_i64
        (Printf.sprintf "vector len=%d" len)
        (siphash24_vector len)
        (Siphash.hash_bytes ref_key (input_bytes len)))
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 15 ]

let siphash_int64_consistency () =
  (* hash_int64 must agree with hash_bytes on the 8-byte LE encoding. *)
  List.iter
    (fun x ->
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 x;
      check_i64
        (Printf.sprintf "int64 %Ld" x)
        (Siphash.hash_bytes ref_key b)
        (Siphash.hash_int64 ref_key x))
    [ 0L; 1L; -1L; 0x0706050403020100L; Int64.max_int; Int64.min_int ]

let siphash_pair_consistency () =
  List.iter
    (fun (a, b) ->
      let buf = Bytes.create 16 in
      Bytes.set_int64_le buf 0 a;
      Bytes.set_int64_le buf 8 b;
      check_i64 "pair = bytes"
        (Siphash.hash_bytes ref_key buf)
        (Siphash.hash_int64_pair ref_key a b))
    [ (0L, 0L); (1L, 2L); (-5L, 77L); (Int64.max_int, Int64.min_int) ]

let siphash_string () =
  check_i64 "string = bytes"
    (Siphash.hash_bytes ref_key (Bytes.of_string "hello"))
    (Siphash.hash_string ref_key "hello")

let siphash_key_sensitivity () =
  let k2 = Siphash.key_of_ints 1L 2L in
  check_bool "different keys differ" true
    (Siphash.hash_int ref_key 42 <> Siphash.hash_int k2 42)

let siphash13_differs () =
  check_bool "1-3 differs from 2-4" true
    (Siphash.hash_int ~c:1 ~d:3 ref_key 42 <> Siphash.hash_int ref_key 42)

let siphash_key_of_rng () =
  let rng = Basalt_prng.Rng.create ~seed:3 in
  let k1 = Siphash.key_of_rng rng in
  let k2 = Siphash.key_of_rng rng in
  check_bool "fresh keys differ" true
    (Siphash.hash_int k1 1 <> Siphash.hash_int k2 1)

(* --- SipHash midstate (the rank hot-path cache) --- *)

(* The resumed midstate must be literally the same function as the
   one-shot pair hash: pinned on the reference-vector key first, then
   over a seeded sweep of keys and blocks. *)
let siphash_midstate_reference_key () =
  List.iter
    (fun (a, b) ->
      check_i64
        (Printf.sprintf "midstate resume (%Ld, %Ld)" a b)
        (Siphash.hash_int64_pair ref_key a b)
        (Siphash.finish_int64_pair (Siphash.prepare_int64 ref_key a) b))
    [
      (0L, 0L);
      (1L, 2L);
      (-1L, 1L);
      (-5L, 77L);
      (0x0706050403020100L, 0x0F0E0D0C0B0A0908L);
      (Int64.max_int, Int64.min_int);
      (Int64.min_int, Int64.max_int);
    ]

let siphash_midstate_seeded_sweep () =
  let rng = Basalt_prng.Rng.create ~seed:41 in
  for _ = 1 to 200 do
    let key = Siphash.key_of_rng rng in
    let a = Basalt_prng.Rng.int64 rng and b = Basalt_prng.Rng.int64 rng in
    let ms = Siphash.prepare_int64 key a in
    check_i64 "sweep: resumed = one-shot"
      (Siphash.hash_int64_pair key a b)
      (Siphash.finish_int64_pair ms b);
    (* One midstate serves many second blocks. *)
    let b2 = Basalt_prng.Rng.int64 rng in
    check_i64 "sweep: midstate reusable"
      (Siphash.hash_int64_pair key a b2)
      (Siphash.finish_int64_pair ms b2)
  done

let siphash_midstate_nondefault_instance () =
  (* Non-2-4 instances take the generic resumption path; it must agree
     with the one-shot hash too. *)
  let ms13 = Siphash.prepare_int64 ~c:1 ref_key 42L in
  check_i64 "1-3 resumed = one-shot"
    (Siphash.hash_int64_pair ~c:1 ~d:3 ref_key 42L 7L)
    (Siphash.finish_int64_pair ~d:3 ms13 7L);
  let ms24 = Siphash.prepare_int64 ref_key 42L in
  check_bool "instances differ" true
    (Siphash.finish_int64_pair ~d:3 ms13 7L
    <> Siphash.finish_int64_pair ms24 7L)

(* --- Mixers --- *)

(* The one 64-bit SplitMix finalizer is [Splitmix64.mix]: the generator's
   [k]-th output from seed 0 is the finalizer applied to [k × gamma]. *)
let mix64_matches_splitmix () =
  let sm = Basalt_prng.Splitmix64.create 0L in
  for k = 1 to 8 do
    check_i64 "mix64 = splitmix finalizer"
      (Basalt_prng.Splitmix64.mix (Int64.mul (Int64.of_int k) 0x9E3779B97F4A7C15L))
      (Basalt_prng.Splitmix64.next sm)
  done

let fmix64_known () =
  (* fmix64 0 = 0 is a well-known fixed point of the murmur finalizer. *)
  check_i64 "fmix64 0" 0L (Rank.fmix64 0L);
  check_bool "fmix64 1" true (Rank.fmix64 1L <> 1L)

let mix63_non_negative () =
  List.iter
    (fun x -> check_bool "non-negative" true (Rank.mix63 x >= 0))
    [ 0; 1; -1; max_int; min_int; 42 ]

let mix63_no_easy_collisions () =
  let seen = Hashtbl.create 10_000 in
  for i = 0 to 9_999 do
    let h = Rank.mix63 i in
    check_bool "no collision among consecutive" false (Hashtbl.mem seen h);
    Hashtbl.add seen h ()
  done

let combine63_depends_on_both () =
  check_bool "seed matters" true (Rank.combine63 1 42 <> Rank.combine63 2 42);
  check_bool "value matters" true (Rank.combine63 1 42 <> Rank.combine63 1 43)

let fnv1a_vectors () =
  check_i64 "empty" 0xCBF29CE484222325L (Rank.fnv1a64 "");
  check_i64 "a" 0xAF63DC4C8601EC8CL (Rank.fnv1a64 "a");
  check_i64 "foobar" 0x85944171F73967E8L (Rank.fnv1a64 "foobar")

(* --- Rank --- *)

let rank_deterministic () =
  let rng = Basalt_prng.Rng.create ~seed:11 in
  let seed = Rank.fresh Rank.Cheap rng in
  check_int "same input same rank" (Rank.rank seed 7) (Rank.rank seed 7)

let rank_non_negative () =
  let rng = Basalt_prng.Rng.create ~seed:12 in
  List.iter
    (fun backend ->
      let seed = Rank.fresh backend rng in
      for id = 0 to 100 do
        check_bool "rank >= 0" true (Rank.rank seed id >= 0)
      done)
    [ Rank.Cheap; Rank.Siphash ref_key ]

(* [kernel_rank seed id] offers [id] alone to one empty slot through the
   batch kernel and reads back the rank it installed. *)
let kernel_rank seed id =
  let ranks = [| max_int |] and holders = [| -1 |] in
  ignore
    (Rank.offer_slot seed ~ids:[| id |] ~digests:[| Rank.digest id |]
       ~since:[| -1 |] ~len:1 ~stamp:0 ~ranks ~holders 0);
  ranks.(0)

let rank_kernel_agrees () =
  let rng = Basalt_prng.Rng.create ~seed:13 in
  List.iter
    (fun backend ->
      let seed = Rank.fresh backend rng in
      for id = 0 to 50 do
        check_int "kernel = direct" (Rank.rank seed id) (kernel_rank seed id)
      done)
    [ Rank.Cheap; Rank.Siphash ref_key ]

let rank_of_int_deterministic () =
  let s1 = Rank.of_int Rank.Cheap 99 and s2 = Rank.of_int Rank.Cheap 99 in
  check_int "same seed value" (Rank.rank s1 5) (Rank.rank s2 5);
  check_int "seed_value round trip" 99 (Rank.seed_value s1)

let rank_seed_changes_order () =
  (* Two fresh seeds should order a candidate set differently (with
     overwhelming probability over 64-bit seeds). *)
  let rng = Basalt_prng.Rng.create ~seed:14 in
  let s1 = Rank.fresh Rank.Cheap rng and s2 = Rank.fresh Rank.Cheap rng in
  let argmin s =
    let best = ref 0 in
    for id = 1 to 999 do
      if Rank.rank s id < Rank.rank s !best then best := id
    done;
    !best
  in
  check_bool "different winners (overwhelmingly likely)" true
    (argmin s1 <> argmin s2)

(* Min-wise independence: with fresh random seeds, each of n candidates
   wins the argmin with probability ~1/n.  This is the property Basalt's
   uniform sampling rests on; test both backends. *)
let rank_minwise_uniformity backend () =
  let rng = Basalt_prng.Rng.create ~seed:15 in
  let n = 20 in
  let trials = 20_000 in
  let wins = Array.make n 0 in
  for _ = 1 to trials do
    let seed = Rank.fresh backend rng in
    let best = ref 0 in
    for id = 1 to n - 1 do
      if Rank.rank seed id < Rank.rank seed !best then best := id
    done;
    wins.(!best) <- wins.(!best) + 1
  done;
  let expected = trials / n in
  Array.iteri
    (fun i w ->
      check_bool
        (Printf.sprintf "candidate %d wins ~uniformly (%d)" i w)
        true
        (abs (w - expected) < expected / 4))
    wins

(* --- Prefix-diverse ranking (the §6 crafted rank function) --- *)

let prefix_backend = Rank.Prefix_diverse { prefix_of = (fun id -> id / 100) }

let prefix_rank_deterministic () =
  let s = Rank.of_int prefix_backend 5 in
  check_int "deterministic" (Rank.rank s 42) (Rank.rank s 42);
  check_bool "non-negative" true (Rank.rank s 42 >= 0)

let prefix_rank_prefix_dominates () =
  (* All identifiers of the best-ranked prefix must rank below every
     identifier of any other prefix, for any seed. *)
  let rng = Basalt_prng.Rng.create ~seed:77 in
  for _ = 1 to 50 do
    let s = Rank.fresh prefix_backend rng in
    (* prefixes 0 and 1 hold ids 0..99 and 100..199 *)
    let best_prefix =
      let r0 = Rank.rank s 0 and r100 = Rank.rank s 100 in
      if r0 < r100 then 0 else 1
    in
    let lo = best_prefix * 100 and hi = (1 - best_prefix) * 100 in
    for i = 0 to 99 do
      check_bool "prefix order dominates id order" true
        (Rank.rank s (lo + i) < Rank.rank s (hi + (99 - i)))
    done
  done

let prefix_rank_uniform_within_prefix () =
  (* Within one prefix the winner is uniform across its members. *)
  let rng = Basalt_prng.Rng.create ~seed:78 in
  let trials = 8000 in
  let members = 10 in
  let wins = Array.make members 0 in
  for _ = 1 to trials do
    let s = Rank.fresh prefix_backend rng in
    let best = ref 0 in
    for i = 1 to members - 1 do
      if Rank.rank s i < Rank.rank s !best then best := i
    done;
    wins.(!best) <- wins.(!best) + 1
  done;
  let expected = trials / members in
  Array.iteri
    (fun i w ->
      check_bool
        (Printf.sprintf "member %d wins uniformly (%d)" i w)
        true
        (abs (w - expected) < expected / 3))
    wins

let prefix_rank_kernel_agrees () =
  let rng = Basalt_prng.Rng.create ~seed:79 in
  let s = Rank.fresh prefix_backend rng in
  for id = 0 to 300 do
    check_int "kernel = direct" (Rank.rank s id) (kernel_rank s id)
  done

module Check = Basalt_check.Check
module Gen = Check.Gen
module Print = Check.Print

let all_backends =
  [
    ("cheap", Rank.Cheap);
    ("keyed-cheap", Rank.Keyed_cheap 0x5DEECE66D);
    ("siphash", Rank.Siphash ref_key);
    ("prefix-diverse", Rank.Prefix_diverse { prefix_of = (fun id -> id / 64) });
  ]

(* The batch kernel against the plain formula, for every backend: one
   slot, starting empty or held, offered a batch whose candidates carry
   arbitrary last-offer stamps.  The reference ranks each candidate with
   [Rank.rank] in batch order, skips those not newer than the slot's
   stamp, installs on empty-or-strictly-lower, and counts evaluations.
   A small identifier range makes duplicate candidates (rank ties)
   common. *)
let prop_kernel_matches_rank =
  Check.prop ~name:"offer_slot = in-order argmin of rank"
    ~count:500
    ~print:
      (Print.triple Print.int Print.int
         (Print.list (Print.pair Print.int Print.int)))
    Gen.(
      triple (nat ~max:1_000_000) (int_range (-1) 20)
        (list ~max_len:12 (pair (nat ~max:30) (int_range (-1) 4))))
    (fun (sv, start, cands) ->
      let stamp = 2 in
      let ids = Array.of_list (List.map fst cands) in
      let since = Array.of_list (List.map snd cands) in
      List.for_all
        (fun (_, backend) ->
          let seed = Rank.of_int backend sv in
          let holder0, rank0 =
            if start < 0 then (-1, max_int) else (start, Rank.rank seed start)
          in
          let ranks = [| 0; rank0 |] and holders = [| 0; holder0 |] in
          let evals =
            Rank.offer_slot seed ~ids ~digests:(Array.map Rank.digest ids)
              ~since ~len:(Array.length ids) ~stamp ~ranks ~holders 1
          in
          let want_holder, want_rank, want_evals =
            List.fold_left
              (fun (h, r, n) (id, s) ->
                if stamp > s then
                  let r' = Rank.rank seed id in
                  if h < 0 || r' < r then (id, r', n + 1) else (h, r, n + 1)
                else (h, r, n))
              (holder0, rank0, 0) cands
          in
          holders.(1) = want_holder && ranks.(1) = want_rank
          && evals = want_evals && ranks.(0) = 0 && holders.(0) = 0)
        all_backends)

(* The SipHash backend's cached midstate path must equal the uncached
   reference formula: hash_int64_pair over (seed, id), masked to a
   non-negative native int. *)
let prop_sip_rank_matches_reference =
  Check.prop ~name:"siphash rank = uncached hash_int64_pair" ~count:500
    ~print:(Print.pair Print.int Print.int)
    Gen.(pair (nat ~max:1_000_000) (nat ~max:1_000_000))
    (fun (sv, id) ->
      let seed = Rank.of_int (Rank.Siphash ref_key) sv in
      Rank.rank seed id
      = Int64.to_int
          (Siphash.hash_int64_pair ref_key (Int64.of_int sv) (Int64.of_int id))
        land max_int)

(* Keyed_cheap is pinned to its documented formula and actually keyed. *)
let keyed_cheap_formula () =
  let key = 0x1234_5678_9ABC in
  let s = Rank.of_int (Rank.Keyed_cheap key) 77 in
  for id = 0 to 200 do
    check_int "keyed63 formula" (Rank.keyed63 ~key 77 id) (Rank.rank s id)
  done;
  let s2 = Rank.of_int (Rank.Keyed_cheap (key + 1)) 77 in
  check_bool "key matters" true (Rank.rank s 42 <> Rank.rank s2 42)

let prop_mix63_nonneg =
  Check.prop ~name:"mix63 non-negative" ~count:1000 ~print:Print.int
    (Gen.int_range min_int max_int)
    (fun x -> Rank.mix63 x >= 0)

let () =
  Alcotest.run "hashing"
    [
      ( "siphash",
        [
          Alcotest.test_case "reference vectors" `Quick
            siphash_reference_vectors;
          Alcotest.test_case "int64 fast path" `Quick siphash_int64_consistency;
          Alcotest.test_case "pair fast path" `Quick siphash_pair_consistency;
          Alcotest.test_case "string wrapper" `Quick siphash_string;
          Alcotest.test_case "key sensitivity" `Quick siphash_key_sensitivity;
          Alcotest.test_case "siphash-1-3 variant" `Quick siphash13_differs;
          Alcotest.test_case "key_of_rng" `Quick siphash_key_of_rng;
          Alcotest.test_case "midstate reference key" `Quick
            siphash_midstate_reference_key;
          Alcotest.test_case "midstate seeded sweep" `Quick
            siphash_midstate_seeded_sweep;
          Alcotest.test_case "midstate non-default instance" `Quick
            siphash_midstate_nondefault_instance;
        ] );
      ( "mix",
        [
          Alcotest.test_case "mix64 = splitmix" `Quick mix64_matches_splitmix;
          Alcotest.test_case "fmix64 known" `Quick fmix64_known;
          Alcotest.test_case "mix63 non-negative" `Quick mix63_non_negative;
          Alcotest.test_case "mix63 collisions" `Quick mix63_no_easy_collisions;
          Alcotest.test_case "combine63" `Quick combine63_depends_on_both;
          Alcotest.test_case "fnv1a vectors" `Quick fnv1a_vectors;
        ] );
      ( "rank",
        [
          Alcotest.test_case "deterministic" `Quick rank_deterministic;
          Alcotest.test_case "non-negative" `Quick rank_non_negative;
          Alcotest.test_case "kernel agrees" `Quick rank_kernel_agrees;
          Alcotest.test_case "of_int" `Quick rank_of_int_deterministic;
          Alcotest.test_case "seed changes order" `Quick rank_seed_changes_order;
          Alcotest.test_case "min-wise uniformity (cheap)" `Slow
            (rank_minwise_uniformity Rank.Cheap);
          Alcotest.test_case "min-wise uniformity (siphash)" `Slow
            (rank_minwise_uniformity (Rank.Siphash ref_key));
          Alcotest.test_case "prefix-diverse deterministic" `Quick
            prefix_rank_deterministic;
          Alcotest.test_case "prefix-diverse prefix dominates" `Quick
            prefix_rank_prefix_dominates;
          Alcotest.test_case "prefix-diverse uniform within prefix" `Slow
            prefix_rank_uniform_within_prefix;
          Alcotest.test_case "prefix-diverse kernel agrees" `Quick
            prefix_rank_kernel_agrees;
          Alcotest.test_case "keyed-cheap formula" `Quick keyed_cheap_formula;
          Alcotest.test_case "min-wise uniformity (keyed-cheap)" `Slow
            (rank_minwise_uniformity (Rank.Keyed_cheap 0xBEEF));
        ] );
      Check.suite "properties"
        [
          prop_kernel_matches_rank;
          prop_sip_rank_matches_reference;
          prop_mix63_nonneg;
        ];
    ]
