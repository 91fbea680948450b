(** Analyzer configuration: the experimental axes of the paper.

    Table 2 varies [kind] × [return_jfs]; Table 3 varies [use_mod] and
    compares against the purely intraprocedural baseline
    ([interprocedural = false], which still uses MOD information, as the
    paper does "for fair comparison").

    The resource axes ([max_steps], [deadline_ms]) bound every analysis
    pass run under the configuration; an exhausted pass widens its
    remaining work to ⊥ and reports itself degraded instead of running
    unbounded. *)

type analysis = [ `Const | `Copy ]

let analysis_name : analysis -> string = function
  | `Const -> "const"
  | `Copy -> "copy"

let analysis_of_string : string -> analysis option = function
  | "const" -> Some `Const
  | "copy" -> Some `Copy
  | _ -> None

type t = {
  analysis : analysis;  (** main's entry seeds: constant or copy propagation *)
  kind : Jump_function.kind;  (** which forward jump function to build *)
  return_jfs : bool;  (** build and use return jump functions *)
  use_mod : bool;  (** use MOD summaries (vs. worst-case call kills) *)
  interprocedural : bool;
      (** when false, skip interprocedural propagation entirely: the
          Table 3 "intraprocedural propagation" baseline *)
  max_steps : int option;  (** per-pass step budget (worklist ticks) *)
  deadline_ms : int option;  (** per-pass wall-clock budget *)
}

let make ?(analysis = `Const) ~kind ?(return_jfs = true) ?(use_mod = true)
    ?(interprocedural = true) ?max_steps ?deadline_ms () =
  { analysis; kind; return_jfs; use_mod; interprocedural; max_steps;
    deadline_ms }

(** The same configuration run under a different analysis. *)
let with_analysis analysis t = { t with analysis }

(** [with_budget ?max_steps ?deadline_ms t] replaces the resource axes
    of [t] (absent arguments clear the corresponding limit). *)
let with_budget ?max_steps ?deadline_ms t = { t with max_steps; deadline_ms }

(** Fresh per-pass budget for this configuration.  Each pass (solver
    drain, per-procedure SCCP, complete-propagation round) creates its
    own so no mutable budget state crosses domain boundaries. *)
let budget (t : t) : Ipcp_support.Budget.t =
  Ipcp_support.Budget.create ?max_steps:t.max_steps ?deadline_ms:t.deadline_ms
    ()

let equal a b =
  a.analysis = b.analysis
  && a.kind = b.kind
  && a.return_jfs = b.return_jfs
  && a.use_mod = b.use_mod
  && a.interprocedural = b.interprocedural
  && a.max_steps = b.max_steps
  && a.deadline_ms = b.deadline_ms

let default = make ~kind:Jump_function.Passthrough ()

(** The six configurations of Table 2, paired with their column labels. *)
let table2_configs =
  [
    ("polynomial+ret", make ~kind:Jump_function.Polynomial ());
    ("passthrough+ret", make ~kind:Jump_function.Passthrough ());
    ("intraconst+ret", make ~kind:Jump_function.Intraconst ());
    ("literal+ret", make ~kind:Jump_function.Literal ());
    ("polynomial-ret", make ~kind:Jump_function.Polynomial ~return_jfs:false ());
    ( "passthrough-ret",
      make ~kind:Jump_function.Passthrough ~return_jfs:false () );
  ]

(** The four configurations of Table 3 (complete propagation is driven by
    {!Ipcp_incr.Complete} on top of [polynomial_with_mod]). *)
let polynomial_no_mod = make ~kind:Jump_function.Polynomial ~use_mod:false ()

let polynomial_with_mod = make ~kind:Jump_function.Polynomial ()

let intraprocedural_only =
  (* return jump functions are an interprocedural mechanism; the baseline
     keeps only MOD information, as the paper specifies *)
  make ~kind:Jump_function.Passthrough ~return_jfs:false
    ~interprocedural:false ()

let pp ppf t =
  (* the const rendering predates the analysis axis and must stay
     byte-identical: only non-default analyses append a tag *)
  Fmt.pf ppf "%s%s%s%s%s"
    (Jump_function.kind_name t.kind)
    (if t.return_jfs then "+ret" else "-ret")
    (if t.use_mod then "+mod" else "-mod")
    (match t.analysis with `Const -> "" | `Copy -> "+copy")
    (if t.interprocedural then "" else " (intra only)");
  (match t.max_steps with
  | Some n -> Fmt.pf ppf " steps<=%d" n
  | None -> ());
  match t.deadline_ms with
  | Some ms -> Fmt.pf ppf " deadline<=%dms" ms
  | None -> ()

let to_string t = Fmt.str "%a" pp t
