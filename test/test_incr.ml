(* Tests for the incremental re-analysis subsystem: canonical procedure
   hashing, call-graph diffing, and the session solver's byte-identity
   with from-scratch analysis.

   The hashing/diff properties mirror the contracts stated in their
   interfaces: strict hashes are parse-artifact-free (stable across
   reparses), semantic hashes are additionally α/ordering-insensitive
   exactly where Metamorph certifies the transformation as
   meaning-preserving, diff is reflexively empty and symmetric up to
   add/remove inversion.  The session tests drive [Incr.update] over a
   handwritten edit sequence under all four jump-function kinds and
   require the served output to be byte-identical to a from-scratch
   [Jobs.analyze] of the same program. *)

open Ipcp_frontend
open Ipcp_core
open Ipcp_serve
module Hashing = Ipcp_incr.Hashing
module Diff = Ipcp_incr.Diff
module Incr = Ipcp_incr.Incr
module Metamorph = Ipcp_certify.Metamorph

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

let tables_of mode src =
  let prog = resolve src in
  (prog, Hashing.table mode prog)

let assert_tables_equal label (a : (string, string) Hashtbl.t)
    (b : (string, string) Hashtbl.t) =
  check Alcotest.int (label ^ ": same procedure set") (Hashtbl.length a)
    (Hashtbl.length b);
  Hashtbl.iter
    (fun name h ->
      match Hashtbl.find_opt b name with
      | Some h' -> check Alcotest.string (label ^ ": " ^ name) h h'
      | None -> fail (label ^ ": " ^ name ^ " missing from second table"))
    a

(* ---- hashing ---- *)

let test_strict_stable_across_reparse () =
  let _, t1 = tables_of Hashing.Strict base_src in
  let _, t2 = tables_of Hashing.Strict base_src in
  assert_tables_equal "reparse" t1 t2

let test_semantic_excludes_name () =
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
  check Alcotest.string "same body, same semantic hash" (Hashing.semantic p)
    (Hashing.semantic q);
  check Alcotest.bool "strict hash covers the name" true
    (Hashing.strict p <> Hashing.strict q)

let transformed label transform src =
  match Sema.check ~file:label (transform src) with
  | Error _ -> fail (label ^ " does not resolve")
  | Ok prog -> prog

let test_rename_preserves_semantic_hashes () =
  let prog = resolve base_src in
  let prog_r =
    transformed "renamed" (Metamorph.rename_variables ~seed:11) base_src
  in
  assert_tables_equal "rename"
    (Hashing.table Hashing.Semantic prog)
    (Hashing.table Hashing.Semantic prog_r)

let test_reorder_preserves_both_hashes () =
  let prog = resolve base_src in
  let prog_r =
    transformed "reordered" (Metamorph.reorder_procs ~seed:11) base_src
  in
  assert_tables_equal "reorder, strict"
    (Hashing.table Hashing.Strict prog)
    (Hashing.table Hashing.Strict prog_r);
  assert_tables_equal "reorder, semantic"
    (Hashing.table Hashing.Semantic prog)
    (Hashing.table Hashing.Semantic prog_r)

(* ---- diffing ---- *)

let test_diff_reflexive_empty () =
  let prog = resolve base_src in
  check Alcotest.bool "diff (p, p) is empty" true
    (Diff.is_empty (Diff.compute prog prog))

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

let test_diff_symmetry () =
  let p1 = resolve base_src and p2 = resolve v2_src in
  let d12 = Diff.compute p1 p2 and d21 = Diff.compute p2 p1 in
  let pairs = Alcotest.(list (pair string string)) in
  check Alcotest.(list string) "added mirrors removed" d12.added_procs
    d21.removed_procs;
  check Alcotest.(list string) "removed mirrors added" d12.removed_procs
    d21.added_procs;
  check Alcotest.(list string) "changed is direction-free" d12.changed_procs
    d21.changed_procs;
  check pairs "added edges mirror removed" d12.added_edges d21.removed_edges;
  check pairs "removed edges mirror added" d12.removed_edges d21.added_edges;
  check Alcotest.(list string) "expected added" [ "c" ] d12.added_procs;
  check Alcotest.(list string) "expected changed" [ "a"; "b" ]
    d12.changed_procs

let test_metamorph_diffs_empty () =
  let prog = resolve base_src in
  List.iter
    (fun (label, transform) ->
      let prog_t = transformed label transform base_src in
      check Alcotest.bool (label ^ " diff is empty") true
        (Diff.is_empty (Diff.compute prog prog_t)))
    [
      ("rename", Metamorph.rename_variables ~seed:23);
      ("reorder", Metamorph.reorder_procs ~seed:23);
    ]

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
  (* a new dead local in a leaf procedure changes its semantic hash but
     neither its summary nor any jump function: the cone must be empty
     even though the diff is not *)
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

(* The same for bare artifacts, as Complete's re-analysis rounds chain
   them: each round keeps the previous round's tables only. *)
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

let suite =
  [
    Alcotest.test_case "strict hash is stable across reparses" `Quick
      test_strict_stable_across_reparse;
    Alcotest.test_case "semantic hash excludes the procedure name" `Quick
      test_semantic_excludes_name;
    Alcotest.test_case "rename preserves semantic hashes" `Quick
      test_rename_preserves_semantic_hashes;
    Alcotest.test_case "reorder preserves per-procedure hashes" `Quick
      test_reorder_preserves_both_hashes;
    Alcotest.test_case "diff of a program with itself is empty" `Quick
      test_diff_reflexive_empty;
    Alcotest.test_case "diff is symmetric up to add/remove inversion" `Quick
      test_diff_symmetry;
    Alcotest.test_case "metamorphic transforms diff as empty" `Quick
      test_metamorph_diffs_empty;
    Alcotest.test_case "update is byte-identical to scratch (all kinds)"
      `Quick test_update_matches_scratch;
    Alcotest.test_case "identical version has an empty cone" `Quick
      test_identical_version_empty_cone;
    Alcotest.test_case "summary-invisible edit has an empty cone" `Quick
      test_invisible_edit_empty_cone;
    Alcotest.test_case "sessions do not pin earlier versions" `Quick
      test_sessions_do_not_pin_history;
    Alcotest.test_case "reused artifacts do not pin earlier rounds" `Quick
      test_artifacts_do_not_pin_history;
  ]
