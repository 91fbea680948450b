(** Procedure-level diff between two program versions.

    Procedures are matched by name and compared by {e semantic} hash
    ({!Hashing.semantic}), so transformations {!Ipcp_certify.Metamorph}
    certifies as meaning-preserving (variable α-renaming, unit
    reordering) yield an empty diff.  Call edges are not diffed: a
    caller's call sites are part of its body, hence of its hash.

    [compute a b] and [compute b a] are mirror images: added/removed
    lists swap, [changed_procs] is identical. *)

open Ipcp_frontend

type t = {
  added_procs : string list;  (** sorted *)
  removed_procs : string list;  (** sorted *)
  changed_procs : string list;
      (** present in both versions with different semantic hashes; sorted *)
}

val is_empty : t -> bool

(** Diff from prebuilt semantic-hash tables (the incremental session
    already has both); one lookup per procedure. *)
val compute_with :
  old_sem:(string, string) Hashtbl.t -> new_sem:(string, string) Hashtbl.t -> t

(** [compute old_prog new_prog] — convenience wrapper hashing both
    programs itself. *)
val compute : Prog.t -> Prog.t -> t

val pp : t Fmt.t
