(* Algebraic properties of the copy-propagation lattice: the same meet
   laws as the constant lattice (commutative, associative, idempotent,
   ⊤ identity, ⊥ absorbing, ⊑ the induced order), plus the property the
   subsumption argument rests on — [Copy_lattice.project] is a meet
   homomorphism onto [Const_lattice] that forgets exactly the copy
   facts.  Exhaustive over a small carrier plus QCheck. *)

open Ipcp_analysis
module L = Copy_lattice
module C = Const_lattice

let check = Alcotest.check
let lat = Alcotest.testable L.pp L.equal
let clat = Alcotest.testable C.pp C.equal

(* Enough distinct constants and copies to hit every meet case,
   including copy-vs-copy and copy-vs-constant disagreement. *)
let carrier =
  [
    L.Top; L.Bottom; L.Const 0; L.Const 1; L.Const (-3); L.Const 42;
    L.Copy "g"; L.Copy "h";
  ]

let test_meet_commutative () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check lat
            (Fmt.str "%a ⊓ %a" L.pp a L.pp b)
            (L.meet a b) (L.meet b a))
        carrier)
    carrier

let test_meet_associative () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun c ->
              check lat
                (Fmt.str "(%a ⊓ %a) ⊓ %a" L.pp a L.pp b L.pp c)
                (L.meet (L.meet a b) c)
                (L.meet a (L.meet b c)))
            carrier)
        carrier)
    carrier

let test_meet_idempotent () =
  List.iter (fun a -> check lat (Fmt.str "%a ⊓ itself" L.pp a) a (L.meet a a))
    carrier

let test_top_identity_bottom_absorbing () =
  List.iter
    (fun a ->
      check lat "⊤ identity (left)" a (L.meet L.Top a);
      check lat "⊤ identity (right)" a (L.meet a L.Top);
      check lat "⊥ absorbing (left)" L.Bottom (L.meet L.Bottom a);
      check lat "⊥ absorbing (right)" L.Bottom (L.meet a L.Bottom))
    carrier

let test_le_agrees_with_meet () =
  (* the definitional connection: a ⊑ b iff a ⊓ b = a *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check Alcotest.bool
            (Fmt.str "%a ⊑ %a iff meet" L.pp a L.pp b)
            (L.equal (L.meet a b) a) (L.le a b))
        carrier)
    carrier

let test_le_partial_order () =
  List.iter
    (fun a ->
      check Alcotest.bool "reflexive" true (L.le a a);
      List.iter
        (fun b ->
          if L.le a b && L.le b a then
            check lat "antisymmetric" a b;
          List.iter
            (fun c ->
              if L.le a b && L.le b c then
                check Alcotest.bool "transitive" true (L.le a c))
            carrier)
        carrier)
    carrier

let test_height_strictly_decreasing () =
  (* copies sit beside constants on the middle level: depth stays 2 *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let m = L.meet a b in
          check Alcotest.bool "meet never raises height" true
            (L.height m <= L.height a && L.height m <= L.height b);
          if not (L.le a b || L.le b a) then
            check lat "incomparable elements meet to ⊥" L.Bottom m)
        carrier)
    carrier

let test_copy_const_incomparable () =
  (* the load-time value of a global is unknown: a copy fact can never
     be ordered against any particular constant *)
  List.iter
    (fun c ->
      check lat "copy ⊓ const is ⊥" L.Bottom (L.meet (L.Copy "g") (L.Const c));
      check Alcotest.bool "copy ⋢ const" false (L.le (L.Copy "g") (L.Const c));
      check Alcotest.bool "const ⋢ copy" false (L.le (L.Const c) (L.Copy "g")))
    [ 0; 1; -3; 42 ]

let test_projection_homomorphism () =
  (* project (a ⊓ b) = project a ⊓ project b, and project is monotone —
     the two facts the subsumption oracle rests on *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check clat
            (Fmt.str "project (%a ⊓ %a)" L.pp a L.pp b)
            (C.meet (L.project a) (L.project b))
            (L.project (L.meet a b));
          if L.le a b then
            check Alcotest.bool
              (Fmt.str "project monotone at %a ⊑ %a" L.pp a L.pp b)
              true
              (C.le (L.project a) (L.project b)))
        carrier)
    carrier

let test_projection_forgets_exactly_copies () =
  check clat "⊤ projects to ⊤" C.Top (L.project L.Top);
  check clat "⊥ projects to ⊥" C.Bottom (L.project L.Bottom);
  check clat "constants survive" (C.Const 7) (L.project (L.Const 7));
  check clat "copies drop to ⊥" C.Bottom (L.project (L.Copy "g"));
  check Alcotest.(option int) "const_value agrees across the projection"
    (C.const_value (L.project (L.Const 7)))
    (L.const_value (L.Const 7));
  check Alcotest.(option int) "copy has no constant value" None
    (L.const_value (L.Copy "g"))

(* ---- the same laws over arbitrary constants and copy names ---- *)

let arb_elt =
  QCheck.map
    (function
      | 0 -> L.Top
      | 1 -> L.Bottom
      | 2 -> L.Copy "g"
      | 3 -> L.Copy "h"
      | 4 -> L.Copy "k"
      | n -> L.Const (n - 5))
    QCheck.(int_range 0 24)

let prop_meet_laws =
  QCheck.Test.make ~name:"meet laws on arbitrary elements" ~count:500
    (QCheck.triple arb_elt arb_elt arb_elt)
    (fun (a, b, c) ->
      L.equal (L.meet a b) (L.meet b a)
      && L.equal (L.meet (L.meet a b) c) (L.meet a (L.meet b c))
      && L.equal (L.meet a a) a
      && L.equal (L.meet L.Top a) a
      && L.equal (L.meet L.Bottom a) L.Bottom
      && L.le a b = L.equal (L.meet a b) a)

let prop_projection_homomorphism =
  QCheck.Test.make ~name:"projection is a meet homomorphism" ~count:500
    (QCheck.pair arb_elt arb_elt)
    (fun (a, b) ->
      C.equal
        (L.project (L.meet a b))
        (C.meet (L.project a) (L.project b))
      && (not (L.le a b) || C.le (L.project a) (L.project b)))

(* ---- constant propagation is the copy analysis without copy facts ---- *)

(* The solver runs on this lattice under both analyses, which differ only
   in what main's entry holds for a global with no load-time value: ⊥
   for const, a copy of itself for copy.  Under every certifier
   configuration, on the suite and on a generated program, the const
   fixpoint holds no copy fact, the copy fixpoint with its copies
   dropped to ⊥ is the const fixpoint, and the CONSTANTS sets agree. *)
let test_const_is_copy_without_copies () =
  let open Ipcp_core in
  let module Prog = Ipcp_frontend.Prog in
  let programs =
    List.map
      (fun (e : Ipcp_suite.Registry.entry) ->
        (e.name, Ipcp_suite.Registry.program e))
      Ipcp_suite.Registry.entries
    @ [
        ( "generated",
          Ipcp_suite.Workload.generate_resolved
            { Ipcp_suite.Workload.default_spec with seed = 5; num_procs = 200 }
        );
      ]
  in
  let drop_copies = function L.Copy _ -> L.Bottom | v -> v in
  List.iter
    (fun (name, prog) ->
      let artifacts = Driver.prepare prog in
      List.iter
        (fun (label, config) ->
          let solve analysis =
            Driver.solve (Config.with_analysis analysis config) artifacts
          in
          let const_t = solve `Const and copy_t = solve `Copy in
          let vals (t : Driver.t) (p : Prog.proc) =
            Hashtbl.find_opt t.solution.vals p.pname
            |> Option.value ~default:Prog.Param_map.empty
          in
          List.iter
            (fun (p : Prog.proc) ->
              let c = vals const_t p in
              Prog.Param_map.iter
                (fun param v ->
                  if L.is_copy v then
                    Alcotest.failf "%s [%s]: const %s of %s holds %a" name
                      label
                      (Prog.param_name prog p param)
                      p.pname L.pp v)
                c;
              check Alcotest.bool
                (Fmt.str "%s [%s]: %s's copy VAL map without copies" name
                   label p.pname)
                true
                (Prog.Param_map.equal L.equal c
                   (Prog.Param_map.map drop_copies (vals copy_t p))))
            prog.procs;
          check Alcotest.bool
            (Fmt.str "%s [%s]: CONSTANTS agree" name label)
            true
            (Driver.constants const_t = Driver.constants copy_t))
        Ipcp_certify.Certify.default_configs)
    programs

let suite =
  [
    ("meet commutative", `Quick, test_meet_commutative);
    ("meet associative", `Quick, test_meet_associative);
    ("meet idempotent", `Quick, test_meet_idempotent);
    ("top identity, bottom absorbing", `Quick, test_top_identity_bottom_absorbing);
    ("le agrees with meet", `Quick, test_le_agrees_with_meet);
    ("le is a partial order", `Quick, test_le_partial_order);
    ("meet lowers height", `Quick, test_height_strictly_decreasing);
    ("copy and const are incomparable", `Quick, test_copy_const_incomparable);
    ("projection is a homomorphism", `Quick, test_projection_homomorphism);
    ( "projection forgets exactly the copies",
      `Quick,
      test_projection_forgets_exactly_copies );
    QCheck_alcotest.to_alcotest prop_meet_laws;
    QCheck_alcotest.to_alcotest prop_projection_homomorphism;
    ( "constant propagation is copy propagation without copies",
      `Quick,
      test_const_is_copy_without_copies );
  ]
