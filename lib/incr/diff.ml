(** Procedure-level diff between two program versions.

    Procedures are matched by name; a procedure present in both versions
    counts as changed when its {e semantic} hash differs ({!Hashing}),
    so α-renames and unit reordering produce an empty diff.  A change in
    what a procedure calls is a change of its body, so edges need no
    diff of their own. *)

open Ipcp_frontend

type t = {
  added_procs : string list;
  removed_procs : string list;
  changed_procs : string list;
      (** present in both versions, different semantic hash *)
}

let is_empty d =
  d.added_procs = [] && d.removed_procs = [] && d.changed_procs = []

let compute_with ~(old_sem : (string, string) Hashtbl.t)
    ~(new_sem : (string, string) Hashtbl.t) : t =
  let added, changed =
    Hashtbl.fold
      (fun name h (added, changed) ->
        match Hashtbl.find_opt old_sem name with
        | None -> (name :: added, changed)
        | Some h' when not (String.equal h h') -> (added, name :: changed)
        | Some _ -> (added, changed))
      new_sem ([], [])
  in
  let removed =
    Hashtbl.fold
      (fun name _ removed ->
        if Hashtbl.mem new_sem name then removed else name :: removed)
      old_sem []
  in
  let sorted = List.sort String.compare in
  {
    added_procs = sorted added;
    removed_procs = sorted removed;
    changed_procs = sorted changed;
  }

let compute (old_prog : Prog.t) (new_prog : Prog.t) : t =
  compute_with ~old_sem:(Hashing.table old_prog)
    ~new_sem:(Hashing.table new_prog)

let pp ppf (d : t) =
  let plist name l =
    if l <> [] then
      Fmt.pf ppf "%s: %a@." name Fmt.(list ~sep:(any ", ") string) l
  in
  if is_empty d then Fmt.pf ppf "empty@."
  else begin
    plist "added procs" d.added_procs;
    plist "removed procs" d.removed_procs;
    plist "changed procs" d.changed_procs
  end
