(* Fault injection: seeded decisions are deterministic per seed, and
   different seeds decide differently.

   The seed comes from IPCP_FAULT_SEED when set (ci.sh runs the suite
   under two fixed seeds), defaulting to 7. *)

module Fault = Ipcp_support.Fault

let check = Alcotest.check

let seed () =
  match Sys.getenv_opt "IPCP_FAULT_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 7)
  | None -> 7

let test_inject_deterministic () =
  let decisions () =
    Fault.with_faults ~seed:(seed ()) ~raise_rate:0.5 (fun () ->
        List.init 100 (fun i ->
            match Fault.inject (Fmt.str "site:%d" i) with
            | () -> false
            | exception Fault.Injected _ -> true))
  in
  check (Alcotest.list Alcotest.bool) "same seed, same decisions"
    (decisions ()) (decisions ());
  check Alcotest.bool "faults cleared afterwards" false (Fault.active ())

let test_different_seeds_differ () =
  let decisions s =
    Fault.with_faults ~seed:s ~raise_rate:0.5 (fun () ->
        List.init 200 (fun i ->
            match Fault.inject (Fmt.str "site:%d" i) with
            | () -> false
            | exception Fault.Injected _ -> true))
  in
  check Alcotest.bool "seeds 1 and 2 disagree somewhere" false
    (decisions 1 = decisions 2)

let suite =
  [
    ("fault decisions deterministic", `Quick, test_inject_deterministic);
    ("fault seeds differ", `Quick, test_different_seeds_differ);
  ]
