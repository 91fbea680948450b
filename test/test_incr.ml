(* Tests for the incremental re-analysis subsystem: structural procedure
   identity and the session solver's byte-identity with from-scratch
   analysis.

   Structural identity ignores the artifacts of a parse (ids and
   locations, which an edit elsewhere shifts) and nothing else, so a
   unit reorder keeps every procedure's identity and an α-rename does
   not; an update to a renamed version still has an empty cone, since
   jump functions name formals by position and globals by storage key.
   The session tests drive
   [Incr.update] over a handwritten edit sequence under all four
   jump-function kinds and require the served output to be
   byte-identical to a from-scratch [Jobs.analyze] of the same
   program. *)

open Ipcp_frontend
open Ipcp_core
open Ipcp_serve
module Incr = Ipcp_incr.Incr
module Metamorph = Ipcp_certify.Metamorph
module Telemetry = Ipcp_telemetry.Telemetry

let check = Alcotest.check
let fail = Alcotest.fail
let resolve = Sema.parse_and_resolve

let base_src =
  "program main\n\
   integer g\n\
   common /blk/ g\n\
   g = 7\n\
   call a(3)\n\
   print *, g\n\
   end\n\
   subroutine a(x)\n\
   integer x\n\
   integer g\n\
   common /blk/ g\n\
   call b(x)\n\
   g = g + x\n\
   end\n\
   subroutine b(y)\n\
   integer y\n\
   print *, y\n\
   end\n"

(* ---- identity ---- *)

(* Every procedure of [a] is structurally equal to the one of the same
   name in [b]. *)
let assert_procs_equal label (a : Prog.t) (b : Prog.t) =
  check Alcotest.int (label ^ ": same procedure count") (List.length a.procs)
    (List.length b.procs);
  List.iter
    (fun (p : Prog.proc) ->
      match Prog.find_proc b p.pname with
      | Some q ->
        check Alcotest.bool (label ^ ": " ^ p.pname) true (Prog.equal_proc p q)
      | None -> fail (label ^ ": " ^ p.pname ^ " missing from second program"))
    a.procs

(* A unit prepended to the source shifts every later id and location:
   identity must ignore both. *)
let test_identity_stable_across_reparse () =
  let prog = resolve base_src in
  let shifted = resolve ("subroutine zz\nprint *, 1\nend\n" ^ base_src) in
  let shifted =
    {
      shifted with
      procs = List.filter (fun (p : Prog.proc) -> p.pname <> "zz") shifted.procs;
    }
  in
  assert_procs_equal "shifted reparse" prog shifted

let test_identity_covers_name () =
  let prog =
    resolve
      "program main\n\
       call p(1)\n\
       call q(1)\n\
       end\n\
       subroutine p(x)\ninteger x\nprint *, x\nend\n\
       subroutine q(x)\ninteger x\nprint *, x\nend\n"
  in
  let p = Prog.find_proc_exn prog "p" and q = Prog.find_proc_exn prog "q" in
  check Alcotest.bool "same body, other name" false (Prog.equal_proc p q)

let transformed label transform src =
  match Sema.check ~file:label (transform src) with
  | Error _ -> fail (label ^ " does not resolve")
  | Ok prog -> prog

let test_reorder_preserves_identity () =
  let prog = resolve base_src in
  let prog_r =
    transformed "reordered" (Metamorph.reorder_procs ~seed:11) base_src
  in
  assert_procs_equal "reorder" prog prog_r

let v2_src =
  (* b changed (prints a sum), c added and called from a, main unchanged *)
  "program main\n\
   integer g\n\
   common /blk/ g\n\
   g = 7\n\
   call a(3)\n\
   print *, g\n\
   end\n\
   subroutine a(x)\n\
   integer x\n\
   integer g\n\
   common /blk/ g\n\
   call b(x)\n\
   call c(x)\n\
   g = g + x\n\
   end\n\
   subroutine b(y)\n\
   integer y\n\
   print *, y + 1\n\
   end\n\
   subroutine c(z)\n\
   integer z\n\
   print *, z\n\
   end\n"

(* ---- session byte-identity ---- *)

let replace_line ~from ~to_ src =
  String.split_on_char '\n' src
  |> List.map (fun l -> if l = from then to_ else l)
  |> String.concat "\n"

(* A handwritten edit sequence exercising all diff shapes: constant
   tweak, added procedure + call, removed call, changed global flow. *)
let edit_sequence =
  [
    base_src;
    replace_line ~from:"call a(3)" ~to_:"call a(4)" base_src;
    v2_src;
    (* drop the call to b entirely *)
    "program main\n\
     integer g\n\
     common /blk/ g\n\
     g = 7\n\
     call a(3)\n\
     print *, g\n\
     end\n\
     subroutine a(x)\n\
     integer x\n\
     integer g\n\
     common /blk/ g\n\
     call c(x)\n\
     g = g + x\n\
     end\n\
     subroutine b(y)\n\
     integer y\n\
     print *, y + 1\n\
     end\n\
     subroutine c(z)\n\
     integer z\n\
     print *, z\n\
     end\n";
  ]

let test_update_matches_scratch () =
  List.iter
    (fun kind ->
      let config = Config.make ~kind () in
      let kname = Jump_function.kind_name kind in
      let progs = List.map resolve edit_sequence in
      match progs with
      | [] -> assert false
      | first :: rest ->
        let sess = ref (Incr.start config first) in
        List.iteri
          (fun i prog ->
            let s', _ = Incr.update ~prev:!sess prog in
            sess := s';
            let inc =
              Jobs.analyze ~solved:(Incr.result s') ~config ~jobs:1 prog
            in
            let scratch = Jobs.analyze ~config ~jobs:1 prog in
            check Alcotest.bool
              (Fmt.str "%s: version %d byte-identical" kname (i + 1))
              true
              (inc = scratch))
          rest)
    Jump_function.all_kinds

let test_identical_version_empty_cone () =
  let config = Config.default in
  let sess = Incr.start config (resolve base_src) in
  let _, stats = Incr.update ~prev:sess (resolve base_src) in
  check Alcotest.int "no changed procs" 0 stats.Incr.changed_procs;
  check Alcotest.int "empty cone" 0 stats.Incr.cone_size;
  check Alcotest.int "nothing re-solved" 0 stats.Incr.procs_resolved;
  check Alcotest.bool "not a full resolve" false stats.Incr.full_resolve

let test_invisible_edit_empty_cone () =
  (* a new dead local in a leaf procedure changes the procedure but
     neither its summary nor any jump function: the cone must be empty
     even though the procedure is not grafted *)
  let with_dead_local =
    replace_line ~from:"integer y" ~to_:"integer y\ninteger t\nt = 5"
      base_src
  in
  let config = Config.default in
  let sess = Incr.start config (resolve base_src) in
  let s', stats = Incr.update ~prev:sess (resolve with_dead_local) in
  check Alcotest.int "one changed proc" 1 stats.Incr.changed_procs;
  check Alcotest.int "empty cone" 0 stats.Incr.cone_size;
  let prog = resolve with_dead_local in
  check Alcotest.bool "still byte-identical" true
    (Jobs.analyze ~solved:(Incr.result s') ~config ~jobs:1 prog
    = Jobs.analyze ~config ~jobs:1 prog)

(* Propagation is kept or done over the whole program, never over part
   of it: an update that changes no site jump function, arity or
   load-time value runs none, and one that changes the jump function at
   a single site, [a]'s call of the leaf [b], solves every procedure
   again. *)
let test_update_keeps_or_solves () =
  let config = Config.default in
  let update after =
    let prev = Incr.start config (resolve base_src) in
    let next = resolve after in
    let coll = Telemetry.create () in
    let sess, stats =
      Telemetry.with_reporter coll (fun () -> Incr.update ~prev next)
    in
    check Alcotest.bool "byte-identical to scratch" true
      (Jobs.analyze ~solved:(Incr.result sess) ~config ~jobs:1 next
      = Jobs.analyze ~config ~jobs:1 next);
    let counter name = Option.value ~default:0 (Telemetry.counter coll name) in
    (List.length next.Prog.procs, stats, counter)
  in
  List.iter
    (fun (label, after) ->
      let _, stats, counter = update after in
      check Alcotest.int (label ^ ": no jump function evaluated") 0
        (counter "solver.jf_evaluations");
      check Alcotest.int (label ^ ": nothing solved again") 0
        stats.Incr.cone_size)
    [
      ("identical version", base_src);
      ( "summary-invisible edit",
        replace_line ~from:"integer y" ~to_:"integer y\ninteger t\nt = 5"
          base_src );
    ];
  let procs, stats, counter =
    update (replace_line ~from:"call b(x)" ~to_:"call b(4)" base_src)
  in
  check Alcotest.int "one site changed: every procedure solved again" procs
    stats.Incr.cone_size;
  if counter "solver.iterations" < procs then
    Alcotest.failf "one site changed: %d solver iterations for %d procedures"
      (counter "solver.iterations") procs

(* A session must not keep the versions before it alive: an update
   keeps what it may reuse of the previous round, not the previous
   session.  The first session is held only through a weak pointer; a
   chain back to it would keep it through three updates. *)
let test_sessions_do_not_pin_history () =
  let progs = List.map resolve edit_sequence in
  let first = Weak.create 1 in
  let start () =
    let s = Incr.start Config.default (List.hd progs) in
    Weak.set first 0 (Some s);
    s
  in
  let sess = ref (start ()) in
  List.iter
    (fun prog -> sess := fst (Incr.update ~prev:!sess prog))
    (List.tl progs);
  Gc.full_major ();
  check Alcotest.bool "first session collected" false (Weak.check first 0);
  ignore (Sys.opaque_identity (Incr.result !sess))

(* The same for bare artifacts, as the updates of a session (complete
   propagation's rounds among them) chain them: each keeps the previous
   version's tables only. *)
let test_artifacts_do_not_pin_history () =
  let prog = resolve base_src in
  let first = Weak.create 1 in
  let prepare () =
    let a = Driver.prepare prog in
    ignore (Driver.solve Config.default a);
    Weak.set first 0 (Some a);
    a
  in
  let a = ref (prepare ()) in
  for _ = 1 to 3 do
    a := Driver.prepare_reusing ~prev:!a ~unchanged:(fun _ -> true) prog;
    ignore (Driver.solve Config.default !a)
  done;
  Gc.full_major ();
  check Alcotest.bool "first artifacts collected" false (Weak.check first 0);
  ignore (Sys.opaque_identity (Driver.solve Config.default !a))

(* Main reads a common global whose load-time value another unit's
   [data] statement sets; the second version changes only that value.
   Main's body is unchanged, so its IR is copied, but its entry constants
   are not: they must come from the new version's [data]. *)
let data_v1_src =
  "program main\n\
   common /c/ k\n\
   integer j\n\
   j = k + 1\n\
   call s(j)\n\
   end\n\
   subroutine s(ia)\n\
   integer ia\n\
   common /c/ k\n\
   print *, ia, k\n\
   end\n\
   subroutine b\n\
   common /c/ k\n\
   data k /5/\n\
   end\n"

let data_v2_src = replace_line ~from:"data k /5/" ~to_:"data k /6/" data_v1_src

let test_data_edit_outside_main () =
  List.iter
    (fun kind ->
      let config = Config.make ~kind () in
      let kname = Jump_function.kind_name kind in
      let v2 = resolve data_v2_src in
      let sess, _ = Incr.update ~prev:(Incr.start config (resolve data_v1_src)) v2 in
      let inc = Jobs.analyze ~solved:(Incr.result sess) ~config ~jobs:1 v2 in
      check Alcotest.bool (kname ^ ": byte-identical to scratch") true
        (inc = Jobs.analyze ~config ~jobs:1 v2))
    Jump_function.all_kinds;
  let v2 = resolve data_v2_src in
  let sess, _ =
    Incr.update ~prev:(Incr.start Config.default (resolve data_v1_src)) v2
  in
  let out =
    (Jobs.analyze ~solved:(Incr.result sess) ~config:Config.default ~jobs:1 v2)
      .Jobs.out
  in
  check Alcotest.bool "the new data value reaches s" true
    (Test_interp.contains ~sub:"s: ia=7, k=6" out)

(* p and q form a cycle; stage 1 builds the cycle from whichever member
   the call-graph walk reaches first, and the second version's extra call
   in main changes which one that is.  p's return jump function (x = 5
   once q's is in the table) then differs although neither body changed,
   and with it the constant r receives. *)
let cycle_v1_src =
  "program main\n\
   integer a, b\n\
   a = 1\n\
   b = 2\n\
   call p(a, 3)\n\
   print *, a, b\n\
   end\n\
   subroutine p(x, n)\n\
   integer x, n, u, t\n\
   call q(x)\n\
   if (n .gt. 0) then\n\
   u = 0\n\
   call p(u, n - 1)\n\
   t = u\n\
   call r(t)\n\
   end if\n\
   end\n\
   subroutine q(y)\n\
   integer y, w\n\
   w = 0\n\
   if (y .gt. 100) then\n\
   call p(w, 0)\n\
   end if\n\
   y = 5\n\
   end\n\
   subroutine r(z)\n\
   integer z\n\
   print *, z\n\
   end\n"

let cycle_v2_src =
  replace_line ~from:"call p(a, 3)" ~to_:"call p(a, 3)\ncall q(b)" cycle_v1_src

let test_cycle_order_change () =
  List.iter
    (fun (label, before, after) ->
      let config = Config.default in
      let next = resolve after in
      let sess, _ = Incr.update ~prev:(Incr.start config (resolve before)) next in
      check Alcotest.bool (label ^ ": byte-identical to scratch") true
        (Jobs.analyze ~solved:(Incr.result sess) ~config ~jobs:1 next
        = Jobs.analyze ~config ~jobs:1 next))
    [
      ("v1 -> v2", cycle_v1_src, cycle_v2_src);
      ("v2 -> v1", cycle_v2_src, cycle_v1_src);
    ]

(* s0 declares the common block first, so its member's display name is
   s0's alias [a]; the second version deletes that declaration, and main
   becomes the first declarer although its text is unchanged: main's
   global record changes with it, so main is not the same procedure.  s2
   declares no common at all and prints the global by its display name,
   which must now be main's [x]. *)
let stale_name_v1_src =
  "subroutine s0(p)\n\
   integer p\n\
   integer a\n\
   common /c/ a\n\
   print *, p\n\
   end\n\
   program main\n\
   integer x\n\
   common /c/ x\n\
   data x /5/\n\
   call s0(1)\n\
   call s2(2)\n\
   end\n\
   subroutine s2(q)\n\
   integer q\n\
   print *, q\n\
   end\n"

let stale_name_v2_src =
  replace_line ~from:"common /c/ a" ~to_:"" stale_name_v1_src

let test_global_names_follow_the_program () =
  let v2 = resolve stale_name_v2_src in
  let sess, stats =
    Incr.update ~prev:(Incr.start Config.default (resolve stale_name_v1_src)) v2
  in
  (* s0 changed, and main's global record now names x: only s2 is the
     same procedure as before *)
  check Alcotest.int "only s2 is grafted" 1 stats.Incr.grafted_procs;
  let rendered =
    Jobs.analyze ~solved:(Incr.result sess) ~config:Config.default ~jobs:1 v2
  in
  check Alcotest.bool "byte-identical to scratch" true
    (rendered = Jobs.analyze ~config:Config.default ~jobs:1 v2);
  check Alcotest.bool "s2 prints main's name" true
    (Test_interp.contains ~sub:"s2: q=2, x=5" rendered.Jobs.out)

(* Reuse is pinned by counters.  [prev] is rendered first, as serve
   renders every response, so its SCCP memo is full. *)
let update_counters ~prev_src ~next_src =
  let config = Config.default in
  let prev = Incr.start config (resolve prev_src) in
  ignore
    (Jobs.analyze ~solved:(Incr.result prev) ~config ~jobs:1 (Incr.prog prev));
  let next = resolve next_src in
  let coll = Telemetry.create () in
  let rendered =
    Telemetry.with_reporter coll (fun () ->
        let sess, _ = Incr.update ~prev next in
        Jobs.analyze ~solved:(Incr.result sess) ~config ~jobs:1 next)
  in
  check Alcotest.bool "byte-identical to scratch" true
    (rendered = Jobs.analyze ~config ~jobs:1 next);
  let counter name = Option.value ~default:0 (Telemetry.counter coll name) in
  (List.length next.Prog.procs, counter)

let generated_src =
  Ipcp_suite.Workload.generate
    { Ipcp_suite.Workload.default_spec with seed = 42; num_procs = 30 }

let test_identical_update_copies_everything () =
  let procs, counter =
    update_counters ~prev_src:generated_src ~next_src:generated_src
  in
  check Alcotest.int "site jump functions copied" procs
    (counter "driver.site_jfs_reused");
  check Alcotest.int "SCCP copied" procs (counter "incr.sccp_reused");
  check Alcotest.int "no SCCP run" 0 (counter "sccp.runs");
  check Alcotest.int "call sites copied" procs
    (counter "callgraph.sites_copied");
  check Alcotest.int "MOD/REF effects copied" procs
    (counter "modref.effects_copied");
  check Alcotest.int "no SCC closed again" 0 (counter "modref.sccs_closed")

(* One more operand in the last [print] changes that procedure's body
   and nothing any other procedure can observe. *)
let test_print_edit_copies_all_but_one () =
  let lines = String.split_on_char '\n' generated_src in
  let target =
    List.find
      (fun l ->
        String.starts_with ~prefix:"  print *, " l && String.contains l ',')
      (List.rev lines)
  in
  let args = String.sub target 11 (String.length target - 11) in
  let edited_line = "  print *, 0, " ^ args in
  let edited =
    String.concat "\n"
      (List.map (fun l -> if l == target then edited_line else l) lines)
  in
  let procs, counter =
    update_counters ~prev_src:generated_src ~next_src:edited
  in
  check Alcotest.int "site jump functions copied" (procs - 1)
    (counter "driver.site_jfs_reused");
  check Alcotest.int "SCCP copied" (procs - 1) (counter "incr.sccp_reused");
  check Alcotest.int "one SCCP run" 1 (counter "sccp.runs")

(* The whole-program fallbacks copy nothing. *)
let test_fallback_copies_nothing () =
  let config = Config.with_budget ~max_steps:1_000_000 Config.default in
  let prog = resolve generated_src in
  let prev = Incr.start config prog in
  ignore (Jobs.analyze ~solved:(Incr.result prev) ~config ~jobs:1 prog);
  let coll = Telemetry.create () in
  let _, stats =
    Telemetry.with_reporter coll (fun () -> Incr.update ~prev prog)
  in
  check Alcotest.bool "full re-solve" true stats.Incr.full_resolve;
  List.iter
    (fun name ->
      check Alcotest.int (name ^ " = 0") 0
        (Option.value ~default:0 (Telemetry.counter coll name)))
    [
      "driver.site_jfs_reused";
      "driver.stage12_reused";
      "incr.sccp_reused";
      "callgraph.sites_copied";
      "modref.effects_copied";
    ]

(* An α-renamed version changes every procedure it renames, and a
   reordered one (with the original names) changes them back; neither
   changes a jump function, so both updates have an empty cone. *)
let test_metamorphic_versions_empty_cone () =
  List.iter
    (fun kind ->
      let config = Config.make ~kind () in
      let kname = Jump_function.kind_name kind in
      List.iter
        (fun src ->
          let versions =
            [
              ( "renamed",
                transformed "renamed" (Metamorph.rename_variables ~seed:23)
                  src );
              ( "reordered",
                transformed "reordered" (Metamorph.reorder_procs ~seed:23) src
              );
            ]
          in
          let sess = ref (Incr.start config (resolve src)) in
          List.iter
            (fun (label, prog) ->
              let s', stats = Incr.update ~prev:!sess prog in
              sess := s';
              let what =
                Fmt.str "%s, %d procedures, %s" kname
                  (List.length prog.Prog.procs)
                  label
              in
              check Alcotest.bool (what ^ ": some procedure changed") true
                (stats.Incr.changed_procs > 0);
              check Alcotest.int (what ^ ": empty cone") 0 stats.Incr.cone_size;
              check Alcotest.bool (what ^ ": byte-identical to scratch") true
                (Jobs.analyze ~solved:(Incr.result s') ~config ~jobs:1 prog
                = Jobs.analyze ~config ~jobs:1 prog))
            versions)
        [ base_src; generated_src ])
    Jump_function.all_kinds

(* The procedures an update counts as changed are the ones of both
   versions it does not graft, whichever way the edit goes. *)
let test_changed_procs_both_ways () =
  let counts before after =
    let _, stats =
      Incr.update
        ~prev:(Incr.start Config.default (resolve before))
        (resolve after)
    in
    (stats.Incr.changed_procs, stats.Incr.grafted_procs)
  in
  (* a and b change, c is added or removed, main is grafted *)
  check Alcotest.(pair int int) "base -> v2" (2, 1) (counts base_src v2_src);
  check Alcotest.(pair int int) "v2 -> base" (2, 1) (counts v2_src base_src)

let suite =
  [
    Alcotest.test_case "identity ignores ids and locations" `Quick
      test_identity_stable_across_reparse;
    Alcotest.test_case "identity covers the procedure name" `Quick
      test_identity_covers_name;
    Alcotest.test_case "reorder preserves procedure identity" `Quick
      test_reorder_preserves_identity;
    Alcotest.test_case "update is byte-identical to scratch (all kinds)"
      `Quick test_update_matches_scratch;
    Alcotest.test_case "identical version has an empty cone" `Quick
      test_identical_version_empty_cone;
    Alcotest.test_case "summary-invisible edit has an empty cone" `Quick
      test_invisible_edit_empty_cone;
    Alcotest.test_case "an update keeps the fixpoint or solves everything"
      `Quick test_update_keeps_or_solves;
    Alcotest.test_case "sessions do not pin earlier versions" `Quick
      test_sessions_do_not_pin_history;
    Alcotest.test_case "data edit outside main matches scratch" `Quick
      test_data_edit_outside_main;
    Alcotest.test_case "cycle built in a new order matches scratch" `Quick
      test_cycle_order_change;
    Alcotest.test_case "global names after an update follow the program"
      `Quick test_global_names_follow_the_program;
    Alcotest.test_case "identical rendered update copies every procedure"
      `Quick test_identical_update_copies_everything;
    Alcotest.test_case "print edit copies all but that procedure" `Quick
      test_print_edit_copies_all_but_one;
    Alcotest.test_case "whole-program fallback copies nothing" `Quick
      test_fallback_copies_nothing;
    Alcotest.test_case "reused artifacts do not pin earlier rounds" `Quick
      test_artifacts_do_not_pin_history;
    Alcotest.test_case "renamed and reordered versions have an empty cone"
      `Quick test_metamorphic_versions_empty_cone;
    Alcotest.test_case "an edit and its undo change the same procedures"
      `Quick test_changed_procs_both_ways;
  ]
