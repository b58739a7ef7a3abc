(* Tests for basalt.prng: SplitMix64, Xoshiro256++, Rng, Zipf. *)

open Basalt_prng

let check_i64 = Alcotest.(check int64)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- SplitMix64 --- *)

(* Published test vectors (JDK SplittableRandom / reference C, seed 0). *)
let splitmix_vectors () =
  let sm = Splitmix64.create 0L in
  check_i64 "first" 0xE220A8397B1DCDAFL (Splitmix64.next sm);
  check_i64 "second" 0x6E789E6AA1B965F4L (Splitmix64.next sm);
  check_i64 "third" 0x06C45D188009454FL (Splitmix64.next sm)

let splitmix_determinism () =
  let a = Splitmix64.create 12345L and b = Splitmix64.create 12345L in
  for _ = 1 to 100 do
    check_i64 "same stream" (Splitmix64.next a) (Splitmix64.next b)
  done

let splitmix_copy () =
  let a = Splitmix64.create 7L in
  ignore (Splitmix64.next a);
  let b = Splitmix64.copy a in
  check_i64 "copy continues identically" (Splitmix64.next a) (Splitmix64.next b)

let splitmix_mix_stateless () =
  check_i64 "mix deterministic" (Splitmix64.mix 42L) (Splitmix64.mix 42L);
  Alcotest.(check bool)
    "mix changes value" true
    (Splitmix64.mix 42L <> 42L)

(* --- Xoshiro256++ --- *)

let xoshiro_determinism () =
  let a = Xoshiro256.create 99L and b = Xoshiro256.create 99L in
  for _ = 1 to 100 do
    check_i64 "same stream" (Xoshiro256.next a) (Xoshiro256.next b)
  done

let xoshiro_seed_sensitivity () =
  let a = Xoshiro256.create 1L and b = Xoshiro256.create 2L in
  let differs = ref false in
  for _ = 1 to 10 do
    if Xoshiro256.next a <> Xoshiro256.next b then differs := true
  done;
  check_bool "different seeds, different streams" true !differs

let xoshiro_zero_state_rejected () =
  Alcotest.check_raises "all-zero state"
    (Invalid_argument "Xoshiro256.of_state: all-zero state") (fun () ->
      ignore (Xoshiro256.of_state 0L 0L 0L 0L))

let xoshiro_copy_independent () =
  let a = Xoshiro256.create 5L in
  let b = Xoshiro256.copy a in
  check_i64 "copies aligned" (Xoshiro256.next a) (Xoshiro256.next b);
  ignore (Xoshiro256.next a);
  (* advancing [a] must not affect [b]'s next output *)
  let a' = Xoshiro256.next a and b' = Xoshiro256.next b in
  check_bool "desynchronised after extra draw" true (a' <> b')

(* --- Pinned streams ---

   The first 64 outputs of each draw primitive for one fixed seed.  Every
   protocol and simulation stream is built from these primitives, so any
   change to the generator's arithmetic or state layout that moves a
   single output shows up here before it moves a pinned experiment. *)

let pin_xoshiro =
  [|
    8219794676073764580L; 7689796663739971614L; -9134691353426682877L;
    604848155500434124L; 6452285419613813000L; 1264054017772904997L;
    875515478121483156L; 8888744379570927178L; -8871211610219428134L;
    5381625115872480190L; 6151890472459475736L; -96181457764620741L;
    6377882528974107744L; -5416687555216044409L; -6088556840316485352L;
    4577581147613222557L; -5609986618956841226L; -9058474878746342053L;
    -6094111071188624313L; -5911694896214770184L; -689561109834640365L;
    -1031664145192188198L; 9209116971101261410L; -4001565543438193214L;
    -5174685876472374902L; 1934524071027778170L; 8779757758995882885L;
    8975153692734501507L; 7862226310176137234L; -3524024611514963784L;
    -1949990084900984326L; -4740831843186899992L; 5802347518006768604L;
    -1163299051995588314L; -1964930385703573821L; 7962401981080960084L;
    -7288674993747302969L; 8786033626749620440L; -2289494220514073970L;
    907047131462652962L; -1678426971736056579L; 6592241665272206612L;
    -5468382500916514470L; 2374883744804199049L; 7046847907392901076L;
    7848843885583537699L; -5216533611361040370L; -6224739933819382232L;
    -7612525057070187843L; -7316781923831650407L; -2518967750528724185L;
    -4934417403704574447L; -2762699843125800880L; -9137798459051776887L;
    -9170602188787534565L; -2556316466064279448L; -5827101640426957214L;
    -6250631012689557229L; -8606917167791714495L; -7475506283381882061L;
    -8088504402394861446L; 6250114159484585753L; -7826167825918320709L;
    -8612906958499195936L;
  |]
let pin_bits =
  [|
    64829759168778272; 2159859130864802054; 886453159353207468;
    1896197619883896426; 2588581545447856804; 798043589880194235;
    4479345775535523339; 4510166266723613741; 1914917455920853451;
    3675366632807384841; 1375899589532173122; 586876310207402150;
    2689593450339300956; 2854489806868818794; 3628891412634601073;
    1981271750652901874; 2553991436006175272; 2000081167360736587;
    2524893682436071257; 3092569529904790250; 1458435627899652184;
    2404080182362089974; 2142765078744353963; 1176180631920838419;
    730510937652003497; 1968382875158523474; 4248209882033181682;
    1251216217727744235; 2082477541493924256; 3677316610364012410;
    1095676360149895688; 2698576781108093506; 147259304191461499;
    2657010785117641129; 2562016141600898089; 152088542080110930;
    4164684581363294701; 3088388607684707378; 2671814195540423531;
    561497959805030797; 2566001757227357351; 4059529323388474627;
    2536155309946030192; 341569496809438197; 1897978928291967067;
    318580179919328376; 2950417910132083127; 1054350688232136639;
    2480072428410639398; 2341403520595209303; 2490582048506415953;
    2123520086149720890; 4052261757695802070; 683841152754890933;
    3558769352179344190; 3095856380796583472; 988443936111337092;
    2831679715615944564; 363842486152883690; 3503592226551092091;
    1968470986428039274; 2753020048126912337; 1011538180156219787;
    3414082792709980099;
  |]
let pin_int64 =
  [|
    32; 6; 44; 42; 36; 59; 11; 45; 11; 9; 2; 38; 28; 42; 49; 50;
    40; 11; 25; 42; 24; 54; 43; 19; 41; 18; 50; 43; 32; 58; 8; 2;
    59; 41; 41; 18; 45; 50; 43; 13; 39; 3; 48; 53; 27; 56; 55; 63;
    38; 23; 17; 58; 22; 53; 62; 48; 4; 52; 42; 59; 42; 17; 11; 3;
  |]
let pin_int1000 =
  [|
    272; 54; 468; 426; 804; 235; 339; 741; 451; 841; 122; 150;
    956; 794; 73; 874; 272; 587; 257; 250; 184; 974; 963; 419;
    497; 474; 682; 235; 256; 410; 688; 506; 499; 129; 89; 930;
    701; 378; 531; 797; 351; 627; 192; 197; 67; 376; 127; 639;
    398; 303; 953; 890; 70; 933; 190; 472; 92; 564; 690; 91;
    274; 337; 787; 99;
  |]
let pin_float =
  [|
    0x1.81cca4a51c422p-1; 0x1.bbf2b8df48293p-1; 0x1.89aa0e7528a9p-5;
    0x1.b4a14b60aa3ddp-1; 0x1.8fb1f4cd82346p-2; 0x1.962670d5642c4p-1;
    0x1.fc53aa8021e2p-1; 0x1.7d2ea8a5bc057p-1; 0x1.a932747ce5b7p-4;
    0x1.980c33d63e76p-3; 0x1.4c60b58c22afp-2; 0x1.04a01ca1a022p-5;
    0x1.954d6bf8d6c3cp-2; 0x1.cf3a5eb612c75p-1; 0x1.64b8d306b51ap-1;
    0x1.36fdc851ea5d7p-1; 0x1.8dc666b7ba26cp-2; 0x1.37836e731cf87p-1;
    0x1.461472da7a75bp-1; 0x1.abac0e68c4afep-2; 0x1.43d6779f8bb88p-4;
    0x1.0ae8118209fd4p-3; 0x1.dbca17c7bab48p-4; 0x1.a0a5441b2aacp-1;
    0x1.288d2f4f3d24p-2; 0x1.6d44672f1f24ap-2; 0x1.f5e958c26bc8ap-1;
    0x1.4574da154b7aep-2; 0x1.7399c92985e58p-2; 0x1.cc21cfe53d8fcp-2;
    0x1.1e693fb0570e1p-1; 0x1.4ae68a91ca214p-1; 0x1.0416571d28681p-1;
    0x1.c9bf327696a33p-1; 0x1.471c383699e07p-1; 0x1.08714ee4945e4p-2;
    0x1.7397dd1f63694p-1; 0x1.d5b85226c2d2p-1; 0x1.28a186d6f8438p-3;
    0x1.0f95aed6c8922p-1; 0x1.1ce2280604848p-3; 0x1.e15961a52f684p-2;
    0x1.8cc8ef44e2372p-2; 0x1.2f5fe972dbdep-6; 0x1.a56f9c78404fp-4;
    0x1.1af4bf162494p-6; 0x1.a3c7f5d4417e2p-2; 0x1.9d439cbac187bp-1;
    0x1.89abf2ef42a04p-2; 0x1.03f2b0c607694p-3; 0x1.c520a65ada611p-1;
    0x1.3af08488f0b8dp-1; 0x1.f0790d3298b77p-1; 0x1.92fafbcf817f7p-1;
    0x1.e2c693bdc464cp-1; 0x1.55ed61f39a037p-1; 0x1.9b6f510bb89c3p-1;
    0x1.3a612d9677bd4p-3; 0x1.14328340f559ap-2; 0x1.84fa1489ab2e8p-3;
    0x1.b5169eec8b4cp-4; 0x1.cc69624b98444p-1; 0x1.1c13693b21e9cp-1;
    0x1.bd8508d87501ep-2;
  |]
let pin_bool = "0000011111000010011000111001000011101011110110110110010000010111"

let pinned_seed = 20231

let pinned_xoshiro () =
  let x = Xoshiro256.create (Int64.of_int pinned_seed) in
  Array.iteri
    (fun i want ->
      check_i64 (Printf.sprintf "output %d" i) want (Xoshiro256.next x))
    pin_xoshiro

let pinned_ints name draw pins () =
  let t = Rng.create ~seed:pinned_seed in
  Array.iteri
    (fun i want -> check_int (Printf.sprintf "%s %d" name i) want (draw t))
    pins

let pinned_float () =
  let t = Rng.create ~seed:pinned_seed in
  Array.iteri
    (fun i want ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "float %d" i) want
        (Rng.float t 1.0))
    pin_float

let pinned_bool () =
  let t = Rng.create ~seed:pinned_seed in
  String.iteri
    (fun i c ->
      check_bool (Printf.sprintf "bool %d" i) (Char.equal c '1') (Rng.bool t))
    pin_bool

(* The integer draws are the simulator's innermost loop (link latency,
   loss and fault draws, peer selection, adversary volleys); they must
   not allocate.  The probe's own allocation (the boxed float returned by
   [Gc.minor_words]) is measured and subtracted. *)
let minor_words_of f =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let own = b -. a in
  let before = Gc.minor_words () in
  f ();
  let after = Gc.minor_words () in
  after -. before -. own

let draws_allocate_nothing () =
  let t = Rng.create ~seed:7 in
  let check name f =
    Alcotest.(check (float 0.0)) (name ^ ": minor words") 0.0 (minor_words_of f)
  in
  check "Rng.int t 100" (fun () ->
      for _ = 1 to 10_000 do
        ignore (Rng.int t 100)
      done);
  check "Rng.bits" (fun () ->
      for _ = 1 to 10_000 do
        ignore (Rng.bits t)
      done);
  check "Rng.bool" (fun () ->
      for _ = 1 to 10_000 do
        ignore (Rng.bool t)
      done)

(* --- Rng --- *)

let rng () = Rng.create ~seed:424242

let rng_int_bounds () =
  let t = rng () in
  for bound = 1 to 50 do
    for _ = 1 to 100 do
      let x = Rng.int t bound in
      check_bool "0 <= x" true (x >= 0);
      check_bool "x < bound" true (x < bound)
    done
  done

let rng_int_invalid () =
  let t = rng () in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int t 0))

let rng_int_covers_values () =
  let t = rng () in
  let seen = Array.make 10 false in
  for _ = 1 to 1000 do
    seen.(Rng.int t 10) <- true
  done;
  Array.iteri (fun i s -> check_bool (Printf.sprintf "value %d seen" i) true s) seen

let rng_int_roughly_uniform () =
  let t = rng () in
  let buckets = Array.make 8 0 in
  let draws = 80_000 in
  for _ = 1 to draws do
    let i = Rng.int t 8 in
    buckets.(i) <- buckets.(i) + 1
  done;
  let expected = draws / 8 in
  Array.iteri
    (fun i c ->
      check_bool
        (Printf.sprintf "bucket %d within 5%% (%d)" i c)
        true
        (abs (c - expected) < expected / 20))
    buckets

let rng_int_in_range () =
  let t = rng () in
  let lo_seen = ref false and hi_seen = ref false in
  for _ = 1 to 1000 do
    let x = Rng.int_in_range t ~lo:(-3) ~hi:3 in
    check_bool "in range" true (x >= -3 && x <= 3);
    if x = -3 then lo_seen := true;
    if x = 3 then hi_seen := true
  done;
  check_bool "lo endpoint reachable" true !lo_seen;
  check_bool "hi endpoint reachable" true !hi_seen

let rng_float_range () =
  let t = rng () in
  for _ = 1 to 1000 do
    let x = Rng.float t 2.5 in
    check_bool "0 <= x < 2.5" true (x >= 0.0 && x < 2.5)
  done

let rng_float_mean () =
  let t = rng () in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float t 1.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean ~ 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let rng_bool_fair () =
  let t = rng () in
  let trues = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bool t then incr trues
  done;
  check_bool "roughly fair" true (abs (!trues - (n / 2)) < n / 20)

let rng_bernoulli_extremes () =
  let t = rng () in
  for _ = 1 to 100 do
    check_bool "p=0 never" false (Rng.bernoulli t ~p:0.0);
    check_bool "p=1 always" true (Rng.bernoulli t ~p:1.0)
  done

let rng_pick () =
  let t = rng () in
  check_int "singleton" 7 (Rng.pick t [| 7 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick t [||]))

let rng_pick_list () =
  let t = rng () in
  check_int "singleton" 9 (Rng.pick_list t [ 9 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick_list: empty list")
    (fun () -> ignore (Rng.pick_list t []))

let rng_shuffle_preserves_multiset () =
  let t = rng () in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle_in_place t a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 100 Fun.id) sorted

let rng_shuffle_moves_things () =
  let t = rng () in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle_in_place t a;
  check_bool "not identity (overwhelmingly likely)" true
    (a <> Array.init 100 Fun.id)

let distinct_ints a =
  let seen = Hashtbl.create (Array.length a) in
  Array.for_all
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    a

let rng_sample_indices_dense () =
  let t = rng () in
  (* k close to n exercises the Fisher-Yates path *)
  let s = Rng.sample_indices t ~k:80 ~n:100 in
  check_int "size" 80 (Array.length s);
  check_bool "distinct" true (distinct_ints s);
  Array.iter (fun x -> check_bool "in range" true (x >= 0 && x < 100)) s

let rng_sample_indices_sparse () =
  let t = rng () in
  (* k << n exercises the hash-rejection path *)
  let s = Rng.sample_indices t ~k:10 ~n:100_000 in
  check_int "size" 10 (Array.length s);
  check_bool "distinct" true (distinct_ints s)

let rng_sample_indices_clamps () =
  let t = rng () in
  check_int "k > n clamps" 5 (Array.length (Rng.sample_indices t ~k:50 ~n:5));
  check_int "k = 0 empty" 0 (Array.length (Rng.sample_indices t ~k:0 ~n:5));
  check_int "n = 0 empty" 0 (Array.length (Rng.sample_indices t ~k:3 ~n:0))

let rng_sample_without_replacement () =
  let t = rng () in
  let a = [| "a"; "b"; "c"; "d"; "e" |] in
  let s = Rng.sample_without_replacement t ~k:3 a in
  check_int "size" 3 (Array.length s);
  Array.iter
    (fun x -> check_bool "member" true (Array.exists (String.equal x) a))
    s

let rng_exponential () =
  let t = rng () in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.exponential t ~rate:2.0 in
    check_bool "positive" true (x >= 0.0);
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean ~ 1/rate" true (Float.abs (mean -. 0.5) < 0.02)

let rng_geometric () =
  let t = rng () in
  check_int "p=1 is 0" 0 (Rng.geometric t ~p:1.0);
  let n = 50_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    let x = Rng.geometric t ~p:0.25 in
    check_bool "non-negative" true (x >= 0);
    sum := !sum + x
  done;
  let mean = float_of_int !sum /. float_of_int n in
  (* E = (1-p)/p = 3 *)
  check_bool "mean ~ 3" true (Float.abs (mean -. 3.0) < 0.1)

let rng_split_decorrelates () =
  let parent = rng () in
  let child = Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Rng.int64 parent = Rng.int64 child then incr same
  done;
  check_int "streams disjoint" 0 !same

let rng_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 50 do
    check_i64 "same seed same stream" (Rng.int64 a) (Rng.int64 b)
  done

(* --- Zipf --- *)

let zipf_validation () =
  Alcotest.check_raises "n=0" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Zipf.create ~n:0 ~s:1.0));
  Alcotest.check_raises "s<0"
    (Invalid_argument "Zipf.create: s must be non-negative") (fun () ->
      ignore (Zipf.create ~n:5 ~s:(-1.0)))

let zipf_probabilities_sum () =
  let z = Zipf.create ~n:50 ~s:1.2 in
  let total = ref 0.0 in
  for i = 0 to 49 do
    total := !total +. Zipf.probability z i
  done;
  check_bool "sums to 1" true (Float.abs (!total -. 1.0) < 1e-9)

let zipf_monotone () =
  let z = Zipf.create ~n:20 ~s:1.0 in
  for i = 0 to 18 do
    check_bool "decreasing" true
      (Zipf.probability z i >= Zipf.probability z (i + 1))
  done

let zipf_uniform_when_s0 () =
  let z = Zipf.create ~n:10 ~s:0.0 in
  for i = 0 to 9 do
    check_bool "uniform" true (Float.abs (Zipf.probability z i -. 0.1) < 1e-9)
  done

let zipf_sample_range_and_skew () =
  let t = rng () in
  let z = Zipf.create ~n:100 ~s:1.5 in
  let first = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let x = Zipf.sample z t in
    check_bool "in range" true (x >= 0 && x < 100);
    if x = 0 then incr first
  done;
  let freq = float_of_int !first /. float_of_int n in
  let p0 = Zipf.probability z 0 in
  check_bool "rank-0 frequency matches" true (Float.abs (freq -. p0) < 0.02)

(* --- lib/check properties --- *)

module Check = Basalt_check.Check
module Gen = Check.Gen
module Print = Check.Print

let prop_int_in_bounds =
  Check.prop ~name:"Rng.int always within bounds" ~count:1000
    ~print:(Print.pair Print.int Print.int)
    Gen.(pair (nat ~max:10_000) (int_range 1 1000))
    (fun (seed, bound) ->
      let t = Rng.create ~seed in
      let x = Rng.int t bound in
      x >= 0 && x < bound)

let prop_sample_indices_distinct =
  Check.prop ~name:"sample_indices always distinct" ~count:300
    ~print:(Print.triple Print.int Print.int Print.int)
    Gen.(triple (nat ~max:10_000) (nat ~max:200) (nat ~max:200))
    (fun (seed, k, n) ->
      let t = Rng.create ~seed in
      let s = Rng.sample_indices t ~k ~n in
      distinct_ints s && Array.length s = min k n)

let prop_shuffle_permutation =
  Check.prop ~name:"shuffle is a permutation" ~count:300
    ~print:(Print.pair Print.int (Print.list Print.int))
    Gen.(pair (nat ~max:10_000) (list ~max_len:40 (int_range (-1000) 1000)))
    (fun (seed, l) ->
      let t = Rng.create ~seed in
      let a = Array.of_list l in
      let before = List.sort Int.compare l in
      Rng.shuffle_in_place t a;
      List.sort Int.compare (Array.to_list a) = before)

(* Distribution sanity for the streams every generator in lib/check
   draws from: a chi-squared-style bound on bucket counts.  Uses a
   pinned per-case seed, so the statistic is exact and deterministic. *)
let prop_int_buckets_balanced =
  Check.prop ~name:"Rng.int buckets roughly balanced" ~count:20
    ~print:(Print.pair Print.int Print.int)
    Gen.(pair (nat ~max:10_000) (int_range 2 16))
    (fun (seed, buckets) ->
      let t = Rng.create ~seed:(seed + 7919) in
      let draws = 4000 in
      let counts = Array.make buckets 0 in
      for _ = 1 to draws do
        let x = Rng.int t buckets in
        counts.(x) <- counts.(x) + 1
      done;
      let expected = float_of_int draws /. float_of_int buckets in
      Array.for_all
        (fun c ->
          let d = Float.abs (float_of_int c -. expected) in
          (* 6 sigma for a binomial bucket: far beyond test flakiness,
             still catches a broken generator instantly. *)
          d < 6.0 *. sqrt expected)
        counts)

let () =
  Alcotest.run "prng"
    [
      ( "splitmix64",
        [
          Alcotest.test_case "reference vectors" `Quick splitmix_vectors;
          Alcotest.test_case "determinism" `Quick splitmix_determinism;
          Alcotest.test_case "copy" `Quick splitmix_copy;
          Alcotest.test_case "mix stateless" `Quick splitmix_mix_stateless;
        ] );
      ( "xoshiro256",
        [
          Alcotest.test_case "determinism" `Quick xoshiro_determinism;
          Alcotest.test_case "seed sensitivity" `Quick xoshiro_seed_sensitivity;
          Alcotest.test_case "zero state rejected" `Quick
            xoshiro_zero_state_rejected;
          Alcotest.test_case "copy independence" `Quick xoshiro_copy_independent;
        ] );
      ( "pinned streams",
        [
          Alcotest.test_case "xoshiro256 next" `Quick pinned_xoshiro;
          Alcotest.test_case "rng bits" `Quick
            (pinned_ints "bits" Rng.bits pin_bits);
          Alcotest.test_case "rng int (power of two)" `Quick
            (pinned_ints "int 64" (fun t -> Rng.int t 64) pin_int64);
          Alcotest.test_case "rng int (other bound)" `Quick
            (pinned_ints "int 1000" (fun t -> Rng.int t 1000) pin_int1000);
          Alcotest.test_case "rng float" `Quick pinned_float;
          Alcotest.test_case "rng bool" `Quick pinned_bool;
          Alcotest.test_case "int draws allocate nothing" `Quick
            draws_allocate_nothing;
        ] );
      ( "rng",
        [
          Alcotest.test_case "int bounds" `Quick rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick rng_int_invalid;
          Alcotest.test_case "int covers values" `Quick rng_int_covers_values;
          Alcotest.test_case "int uniformity" `Slow rng_int_roughly_uniform;
          Alcotest.test_case "int_in_range" `Quick rng_int_in_range;
          Alcotest.test_case "float range" `Quick rng_float_range;
          Alcotest.test_case "float mean" `Slow rng_float_mean;
          Alcotest.test_case "bool fair" `Slow rng_bool_fair;
          Alcotest.test_case "bernoulli extremes" `Quick rng_bernoulli_extremes;
          Alcotest.test_case "pick" `Quick rng_pick;
          Alcotest.test_case "pick_list" `Quick rng_pick_list;
          Alcotest.test_case "shuffle multiset" `Quick
            rng_shuffle_preserves_multiset;
          Alcotest.test_case "shuffle moves" `Quick rng_shuffle_moves_things;
          Alcotest.test_case "sample dense" `Quick rng_sample_indices_dense;
          Alcotest.test_case "sample sparse" `Quick rng_sample_indices_sparse;
          Alcotest.test_case "sample clamps" `Quick rng_sample_indices_clamps;
          Alcotest.test_case "sample w/o replacement" `Quick
            rng_sample_without_replacement;
          Alcotest.test_case "exponential" `Slow rng_exponential;
          Alcotest.test_case "geometric" `Slow rng_geometric;
          Alcotest.test_case "split decorrelates" `Quick rng_split_decorrelates;
          Alcotest.test_case "determinism" `Quick rng_determinism;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "validation" `Quick zipf_validation;
          Alcotest.test_case "probabilities sum" `Quick zipf_probabilities_sum;
          Alcotest.test_case "monotone" `Quick zipf_monotone;
          Alcotest.test_case "uniform when s=0" `Quick zipf_uniform_when_s0;
          Alcotest.test_case "sample range and skew" `Slow
            zipf_sample_range_and_skew;
        ] );
      Check.suite "properties"
        [
          prop_int_in_bounds;
          prop_sample_indices_distinct;
          prop_shuffle_permutation;
          prop_int_buckets_balanced;
        ];
    ]
