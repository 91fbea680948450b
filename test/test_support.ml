(* Unit and property tests for the support library: worklists, the
   deterministic PRNG, and numeric summaries. *)

open Ipcp_support

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Worklist *)

let test_worklist_fifo () =
  let w = Worklist.create () in
  Worklist.push w 1;
  Worklist.push w 2;
  Worklist.push w 3;
  check (Alcotest.option Alcotest.int) "first" (Some 1) (Worklist.pop w);
  check (Alcotest.option Alcotest.int) "second" (Some 2) (Worklist.pop w);
  check (Alcotest.option Alcotest.int) "third" (Some 3) (Worklist.pop w);
  check (Alcotest.option Alcotest.int) "empty" None (Worklist.pop w)

let test_worklist_dedup () =
  let w = Worklist.create () in
  Worklist.push w 7;
  Worklist.push w 7;
  Worklist.push w 7;
  check Alcotest.int "queued once" 1 (Worklist.length w)

let test_worklist_reinsertion_after_pop () =
  let w = Worklist.create () in
  Worklist.push w 7;
  ignore (Worklist.pop w);
  Worklist.push w 7;
  check Alcotest.int "can requeue after pop" 1 (Worklist.length w)

let test_worklist_drain_with_pushes () =
  (* drain processes items pushed during the drain *)
  let w = Worklist.of_list [ 1 ] in
  let seen = ref [] in
  Worklist.drain w (fun x ->
      seen := x :: !seen;
      if x < 5 then Worklist.push w (x + 1));
  check (Alcotest.list Alcotest.int) "chain processed" [ 1; 2; 3; 4; 5 ]
    (List.rev !seen)

let prop_worklist_processes_each_once =
  QCheck2.Test.make ~name:"drain visits each pushed item exactly once"
    ~count:100
    QCheck2.Gen.(list_size (int_range 0 50) (int_range 0 20))
    (fun items ->
      let w = Worklist.of_list items in
      let counts = Hashtbl.create 16 in
      Worklist.drain w (fun x ->
          Hashtbl.replace counts x (1 + Option.value ~default:0 (Hashtbl.find_opt counts x)));
      Hashtbl.fold (fun _ c acc -> acc && c = 1) counts true)

(* the dense worklist is the hashed one over [0, n): same pops, same
   counters *)
let prop_dense_worklist_matches =
  QCheck2.Test.make ~name:"dense worklist pops and counts like the hashed one"
    ~count:200
    QCheck2.Gen.(list_size (int_range 0 80) (option (int_range 0 15)))
    (fun ops ->
      let w = Worklist.create () and d = Worklist.Dense.create 16 in
      List.for_all
        (function
          | Some i ->
            Worklist.push w i;
            Worklist.Dense.push d i;
            true
          | None -> Worklist.pop w = Worklist.Dense.pop d)
        ops
      && Worklist.stats w = Worklist.Dense.stats d)

(* ------------------------------------------------------------------ *)
(* PRNG *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  let sa = List.init 20 (fun _ -> Prng.int a 1000) in
  let sb = List.init 20 (fun _ -> Prng.int b 1000) in
  check (Alcotest.list Alcotest.int) "same stream" sa sb

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let sa = List.init 20 (fun _ -> Prng.int a 1000) in
  let sb = List.init 20 (fun _ -> Prng.int b 1000) in
  check Alcotest.bool "different streams" true (sa <> sb)

let prop_prng_int_in_bounds =
  QCheck2.Test.make ~name:"int stays in bounds" ~count:200
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create seed in
      List.for_all
        (fun _ ->
          let v = Prng.int rng bound in
          v >= 0 && v < bound)
        (List.init 50 Fun.id))

let prop_prng_range_inclusive =
  QCheck2.Test.make ~name:"range is inclusive" ~count:200
    QCheck2.Gen.(pair (int_range 0 10_000) (pair (int_range (-50) 50) (int_range 0 100)))
    (fun (seed, (lo, span)) ->
      let hi = lo + span in
      let rng = Prng.create seed in
      List.for_all
        (fun _ ->
          let v = Prng.range rng lo hi in
          v >= lo && v <= hi)
        (List.init 50 Fun.id))

let test_prng_choose_covers () =
  let rng = Prng.create 7 in
  let seen = Hashtbl.create 4 in
  for _ = 1 to 200 do
    Hashtbl.replace seen (Prng.choose rng [ "a"; "b"; "c" ]) ()
  done;
  check Alcotest.int "all choices seen" 3 (Hashtbl.length seen)

let test_prng_shuffle_permutes () =
  let rng = Prng.create 9 in
  let original = List.init 10 Fun.id in
  let shuffled = Prng.shuffle rng original in
  check (Alcotest.list Alcotest.int) "same multiset" original
    (List.sort compare shuffled)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_mean () =
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean [ 1; 2; 3; 4 ]);
  check (Alcotest.float 1e-9) "empty mean" 0.0 (Stats.mean [])

let test_stats_median () =
  check Alcotest.int "odd" 3 (Stats.median [ 5; 1; 3 ]);
  check Alcotest.int "even (lower)" 2 (Stats.median [ 4; 1; 2; 3 ]);
  check Alcotest.int "empty" 0 (Stats.median [])

let test_stats_stddev () =
  check (Alcotest.float 1e-9) "empty" 0.0 (Stats.stddev []);
  check (Alcotest.float 1e-9) "singleton" 0.0 (Stats.stddev [ 7 ]);
  check (Alcotest.float 1e-9) "constant list" 0.0 (Stats.stddev [ 4; 4; 4 ]);
  (* population stddev of [2;4;4;4;5;5;7;9] is exactly 2 *)
  check (Alcotest.float 1e-9) "known value" 2.0
    (Stats.stddev [ 2; 4; 4; 4; 5; 5; 7; 9 ])

let test_stats_percentile () =
  check Alcotest.int "empty" 0 (Stats.percentile [] 50.0);
  check Alcotest.int "singleton p0" 7 (Stats.percentile [ 7 ] 0.0);
  check Alcotest.int "singleton p100" 7 (Stats.percentile [ 7 ] 100.0);
  let evens = [ 4; 1; 2; 3 ] in
  check Alcotest.int "even-length p50 = lower middle" 2
    (Stats.percentile evens 50.0);
  check Alcotest.int "even-length p50 agrees with median" (Stats.median evens)
    (Stats.percentile evens 50.0);
  check Alcotest.int "p100 is max" 4 (Stats.percentile evens 100.0);
  check Alcotest.int "p25 of 1..4" 1 (Stats.percentile evens 25.0);
  check Alcotest.int "odd-length p50 agrees with median" 3
    (Stats.percentile [ 5; 1; 3 ] 50.0);
  (* out-of-range p is clamped, not crashed on *)
  check Alcotest.int "p>100 clamps" 4 (Stats.percentile evens 250.0);
  check Alcotest.int "p<0 clamps" 1 (Stats.percentile evens (-10.0))

let test_stats_extremes () =
  check (Alcotest.option Alcotest.int) "max" (Some 9) (Stats.max_opt [ 3; 9; 1 ]);
  check (Alcotest.option Alcotest.int) "min" (Some 1) (Stats.min_opt [ 3; 9; 1 ]);
  check (Alcotest.option Alcotest.int) "empty max" None (Stats.max_opt []);
  check Alcotest.int "sum" 13 (Stats.sum [ 3; 9; 1 ])

let suite =
  [
    ("worklist fifo order", `Quick, test_worklist_fifo);
    ("worklist dedup", `Quick, test_worklist_dedup);
    ("worklist requeue after pop", `Quick, test_worklist_reinsertion_after_pop);
    ("worklist drain with pushes", `Quick, test_worklist_drain_with_pushes);
    QCheck_alcotest.to_alcotest prop_worklist_processes_each_once;
    QCheck_alcotest.to_alcotest prop_dense_worklist_matches;
    ("prng deterministic", `Quick, test_prng_deterministic);
    ("prng seeds differ", `Quick, test_prng_seeds_differ);
    QCheck_alcotest.to_alcotest prop_prng_int_in_bounds;
    QCheck_alcotest.to_alcotest prop_prng_range_inclusive;
    ("prng choose covers", `Quick, test_prng_choose_covers);
    ("prng shuffle permutes", `Quick, test_prng_shuffle_permutes);
    ("stats mean", `Quick, test_stats_mean);
    ("stats median", `Quick, test_stats_median);
    ("stats stddev", `Quick, test_stats_stddev);
    ("stats percentile", `Quick, test_stats_percentile);
    ("stats extremes", `Quick, test_stats_extremes);
  ]
