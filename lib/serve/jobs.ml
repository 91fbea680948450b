open Ipcp_frontend
open Ipcp_core

let exit_input = 3
let exit_internal = 4

type outcome = { out : string; err : string; code : int }

(* Render through buffer formatters.  A fresh formatter shares
   std_formatter's default geometry (margin, max indent), so everything
   breaks lines exactly as a direct CLI print would. *)
let render f =
  let out_buf = Buffer.create 1024 and err_buf = Buffer.create 256 in
  let out = Format.formatter_of_buffer out_buf in
  let err = Format.formatter_of_buffer err_buf in
  let code = f out err in
  Format.pp_print_flush out ();
  Format.pp_print_flush err ();
  { out = Buffer.contents out_buf; err = Buffer.contents err_buf; code }

(* ---------------- load ---------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  let fail pp_err =
    Error (render (fun _out err -> pp_err err; exit_input))
  in
  match read_file path with
  | exception Sys_error m -> fail (fun err -> Fmt.pf err "error: %s@." m)
  | src -> (
    match Sema.check ~file:path src with
    | Ok prog -> Ok (src, prog)
    | Error diags ->
      fail (fun err ->
          Fmt.pf err "%a%a@." Ipcp_support.Diagnostics.pp diags
            Ipcp_support.Diagnostics.pp_summary diags))

(* ---------------- certification ---------------- *)

(* One certification verdict; the violation report goes to stderr, like
   all error reporting.  The certify.* counter triple always travels
   together — an in-band check counts as one sampled check at rate 1.0 —
   so every profile that mentions certification carries the same schema
   the serve health snapshot exports. *)
let pp_certification out err label (r : Ipcp_certify.Certify.report) =
  let module Telemetry = Ipcp_telemetry.Telemetry in
  Telemetry.add "certify.sampled" 1;
  let passed = Ipcp_certify.Certify.ok r in
  Telemetry.add "certify.passed" (if passed then 1 else 0);
  Telemetry.add "certify.failed" (if passed then 0 else 1);
  if Ipcp_certify.Certify.ok r then begin
    Fmt.pf out "--- certified [%s]: %a@." label Ipcp_certify.Certify.pp_report r;
    0
  end
  else begin
    Fmt.pf err "certification failed [%s]:@.%a@." label
      Ipcp_support.Diagnostics.pp
      (Ipcp_certify.Certify.to_diagnostics r);
    exit_internal
  end

(* ---------------- analyze ---------------- *)

let pp_degraded ppf reasons =
  List.iter
    (fun r ->
      Fmt.pf ppf
        "--- degraded: %a (results remain sound; raise --max-steps / \
         --deadline-ms for full precision)@."
        Ipcp_support.Budget.pp_reason r)
    reasons

let certification ?fuel ?input ~label t =
  render (fun out err ->
      pp_certification out err label
        (Ipcp_certify.Certify.check ?fuel ?input t))

let analyze ?(verbose = false) ?(complete = false) ?(certify = false)
    ?substitute_out ?solved ?session ~config ~jobs prog =
  render @@ fun ppf err ->
  (* a precomputed result or session (the incremental path) renders
     through the same pipeline below, so its frames stay byte-identical
     to a from-scratch analyze *)
  let plain t = (t, Driver.degraded t) in
  let complete_of (o : Ipcp_incr.Complete.outcome) = (o.final, o.degraded) in
  let t, degraded =
    match (solved, session) with
    | Some t, _ -> plain t
    | None, Some s ->
      if complete then complete_of (Ipcp_incr.Complete.continue s)
      else plain (Ipcp_incr.Incr.result s)
    | None, None ->
      if complete then complete_of (Ipcp_incr.Complete.run ~config prog)
      else plain (Driver.analyze config prog)
  in
  (* the certifier reads the SCCP results substitution computes *)
  let t = if certify then { t with Driver.keep_sccps = true } else t in
  let span = Ipcp_telemetry.Telemetry.span in
  let prog', stats = span "substitute" (fun () -> Substitute.apply ~jobs t) in
  span "render" (fun () ->
      if verbose then begin
        Fmt.pf ppf "--- call graph@.%a@." Callgraph.pp t.Driver.cg;
        Fmt.pf ppf "--- mod/ref@.%a@." Modref.pp t.Driver.modref
      end;
      Fmt.pf ppf "--- configuration: %a@." Config.pp config;
      Fmt.pf ppf "--- CONSTANTS sets@.%a" Driver.pp_constants t;
      Fmt.pf ppf "--- constants substituted: %d@." stats.Substitute.total;
      List.iter
        (fun (p, n) -> if n > 0 then Fmt.pf ppf "      %-16s %d@." p n)
        stats.Substitute.by_proc;
      pp_degraded ppf degraded;
      if stats.Substitute.sccp_degraded <> [] then
        Fmt.pf ppf
          "--- degraded (sccp budget, no substitutions): %a@."
          Fmt.(list ~sep:(any " ") string)
          stats.Substitute.sccp_degraded;
      match substitute_out with
      | Some out ->
        let oc = open_out out in
        output_string oc (Pretty.program_to_string prog');
        close_out oc;
        Fmt.pf ppf "--- substituted source written to %s@." out
      | None -> ());
  if certify then
    pp_certification ppf err (Config.to_string config)
      (Ipcp_certify.Certify.check t)
  else 0

(* ---------------- tables ---------------- *)

let tables ?(analysis = `Const) ?(certify = false) ?max_steps ?deadline_ms
    ~jobs () =
  render @@ fun ppf err ->
  Fmt.pf ppf "%a@."
    (fun ppf () ->
      Ipcp_suite.Tables.pp_all ~analysis ~jobs ?max_steps ?deadline_ms ppf ())
    ();
  if certify then begin
    let config =
      Config.with_analysis analysis
        (Config.with_budget ?max_steps ?deadline_ms Config.default)
    in
    let code =
      List.fold_left
        (fun acc (e : Ipcp_suite.Registry.entry) ->
          let prog = Ipcp_suite.Registry.program e in
          let c =
            pp_certification ppf err e.name
              (Ipcp_certify.Certify.check (Driver.analyze config prog))
          in
          if c <> 0 then c else acc)
        0 Ipcp_suite.Registry.entries
    in
    code
  end
  else 0
