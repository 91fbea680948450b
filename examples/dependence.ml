(* Dependence analysis: the paper's very first motivation (§1, citing Shen,
   Li & Yew).  Array subscripts like a(m*i + k) look *nonlinear* to a
   dependence analyzer when m and k are unknown symbols — but m and k are
   often interprocedural constants.  Shen et al. found ~50% of "nonlinear"
   subscripts became linear given interprocedural constants; this example
   shows the same effect end to end: the GCD test can suddenly prove loops
   independent.

     dune exec examples/dependence.exe
*)

open Ipcp_frontend
open Ipcp_core
open Ipcp_analysis

let source =
  {|
program main
  integer n
  n = 100
  call stride(n, 2, 1)
end

subroutine stride(n, m, k)
  integer n, m, k, i
  integer a(512)
  do i = 1, 512
    a(i) = 0
  end do
  do i = 1, n
    a(m * i + k) = a(m * i) + 1
  end do
  print *, a(3)
end
|}

let report label (t : Driver.t) ~seed_constants =
  let const_of (proc : Prog.proc) (v : Prog.var) =
    if not seed_constants then None
    else if Prog.is_scalar v && v.vty = Prog.Tint then
      match v.vkind with
      | Prog.Kformal i ->
        Ipcp_analysis.Copy_lattice.const_value
          (Solver.lookup t.solution proc.pname (Prog.Pformal i))
      | Prog.Kglobal g ->
        Ipcp_analysis.Copy_lattice.const_value
          (Solver.lookup t.solution proc.pname (Prog.Pglob (Prog.global_key g)))
      | _ -> None
    else None
  in
  let reports = Dependence.analyze_program ~const_of t.prog in
  let affine, nonlinear = Dependence.subscript_totals reports in
  Fmt.pr "== %s@." label;
  Fmt.pr "   subscripts: %d affine, %d nonlinear@." affine nonlinear;
  List.iter
    (fun (r : Dependence.loop_report) ->
      if r.lr_accesses <> [] then
        Fmt.pr "   %s: do %s (line %d): %d independent, %d dependent, %d \
                unanalyzable pair(s)@."
          r.lr_proc r.lr_var r.lr_loc.line r.lr_independent_pairs
          r.lr_dependent_pairs r.lr_unknown_pairs)
    reports;
  Fmt.pr "@."

let () =
  let prog = Sema.parse_and_resolve ~file:"dependence" source in
  let t = Driver.analyze Config.polynomial_with_mod prog in
  (* without interprocedural constants: m and k are opaque symbols *)
  report "without interprocedural constants" t ~seed_constants:false;
  (* with them: m = 2, k = 1, so a(2i+1) vs a(2i) — odd vs even elements —
     and the GCD test proves the accesses independent *)
  report "with interprocedural constants" t ~seed_constants:true
