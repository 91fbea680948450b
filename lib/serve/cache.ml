let magic = "ipcp-artifact-cache/1"

type t = {
  c_dir : string;
  c_build : string;
  c_max_entries : int option;
  hits : int Atomic.t;
  misses : int Atomic.t;
  corrupt : int Atomic.t;
  stores : int Atomic.t;
  evictions : int Atomic.t;
  tmp_seq : int Atomic.t;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The build fingerprint folds the binary's digest into every key:
   Marshal payloads are layout-specific, so a rebuilt ipcp must never
   decode an old build's entries — with the fingerprint in the key it
   never even finds them.  Taken once, when the cache is opened. *)
let build_id () =
  match Digest.file Sys.executable_name with
  | d -> Digest.to_hex d
  | exception Sys_error _ -> "unknown-build"

let create ?max_entries ~dir () =
  mkdir_p dir;
  {
    c_dir = dir;
    c_build = build_id ();
    c_max_entries = max_entries;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    corrupt = Atomic.make 0;
    stores = Atomic.make 0;
    evictions = Atomic.make 0;
    tmp_seq = Atomic.make 0;
  }

let key t ~source =
  Digest.to_hex (Digest.string (t.c_build ^ "\x00" ^ source))

let entry_path t ~key = Filename.concat t.c_dir (key ^ ".art")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Validate the header and checksum; only then hand the payload out
   (feeding Marshal unverified bytes can do worse than raise).  Any
   failure is a corrupt entry. *)
let decode data =
  match String.index_opt data '\n' with
  | None -> None
  | Some nl -> (
    let header = String.sub data 0 nl in
    match String.split_on_char ' ' header with
    | [ m; hex; len_s ] when m = magic -> (
      match int_of_string_opt len_s with
      | None -> None
      | Some len ->
        let start = nl + 1 in
        if String.length data - start <> len then None
        else
          let payload = String.sub data start len in
          if Digest.to_hex (Digest.string payload) <> hex then None
          else Some payload)
    | _ -> None)

(* Touch the entry so eviction order is least-recently-USED, not
   least-recently-written: a hot entry read by every request must not
   become the eviction victim just because it was stored first.
   Best-effort — a concurrent eviction can remove the file between the
   read and the touch, and that is fine (the hit already has its bytes;
   the next request recomputes). *)
let touch path =
  let now = Unix.gettimeofday () in
  try Unix.utimes path now now with Unix.Unix_error _ | Sys_error _ -> ()

(* Corrupt entries are removed so they are never trusted again (the
   recompute overwrites anyway). *)
let find t ~key =
  let path = entry_path t ~key in
  match read_file path with
  | exception Sys_error _ ->
    Atomic.incr t.misses;
    None
  | data -> (
    match decode data with
    | Some payload ->
      touch path;
      Atomic.incr t.hits;
      Some payload
    | None ->
      (try Sys.remove path with Sys_error _ -> ());
      Atomic.incr t.corrupt;
      None)

(* mtime-LRU eviction down to the cap.  Runs after a successful store;
   racing evictions from several worker domains just fail their
   duplicate removes harmlessly.  The entry just written carries the
   newest mtime and is never the victim. *)
let maybe_evict t =
  match t.c_max_entries with
  | None -> ()
  | Some cap -> (
    match Sys.readdir t.c_dir with
    | exception Sys_error _ -> ()
    | files ->
      let entries =
        Array.to_list files
        |> List.filter (fun f -> Filename.check_suffix f ".art")
      in
      let excess = List.length entries - max 0 cap in
      if excess > 0 then begin
        let dated =
          List.filter_map
            (fun f ->
              let p = Filename.concat t.c_dir f in
              match Unix.stat p with
              | s -> Some (s.Unix.st_mtime, f, p)
              | exception Unix.Unix_error _ -> None)
            entries
        in
        (* oldest first; equal mtimes break ties by name so concurrent
           evictors pick the same victims *)
        List.iteri
          (fun i (_, _, p) ->
            if i < excess then
              match Sys.remove p with
              | () -> Atomic.incr t.evictions
              | exception Sys_error _ -> ())
          (List.sort compare dated)
      end)

(* A commit failure surfaced to the caller: the entry was NOT published
   and the temp file is gone.  The caller decides policy (the server
   degrades to cacheless operation); the cache only reports. *)
exception Commit_failed of string

let write_all fd s ~pos ~len =
  let off = ref pos and left = ref len in
  while !left > 0 do
    match Unix.write_substring fd s !off !left with
    | n ->
      off := !off + n;
      left := !left - n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let store t ~key payload =
  let header =
    Printf.sprintf "%s %s %d\n" magic
      (Digest.to_hex (Digest.string payload))
      (String.length payload)
  in
  let tmp =
    Filename.concat t.c_dir
      (Printf.sprintf ".tmp.%d.%d.%s" (Unix.getpid ())
         (Atomic.fetch_and_add t.tmp_seq 1)
         key)
  in
  let injected = Ipcp_support.Fault.disk ("cache.commit:" ^ key) in
  let fail fault =
    raise
      (Commit_failed
         (Printf.sprintf "injected %s during cache commit"
            (Ipcp_support.Fault.disk_fault_name fault)))
  in
  match
    (match injected with Some (Enospc as f) -> fail f | _ -> ());
    let fd =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        write_all fd header ~pos:0 ~len:(String.length header);
        (match injected with
        | Some (Short_write as f) ->
          (* land half the payload, then fail: the torn temp file must
             never reach the rename below *)
          write_all fd payload ~pos:0 ~len:(String.length payload / 2);
          fail f
        | _ -> write_all fd payload ~pos:0 ~len:(String.length payload));
        (* fsync before the rename: a crash between write and rename
           must not be able to publish an empty or torn entry once the
           rename itself is durable *)
        (match injected with Some (Fsync_fail as f) -> fail f | _ -> ());
        Unix.fsync fd);
    (* the rename is the commit point: readers see the old entry (or
       none) until the new one is complete on disk *)
    Sys.rename tmp (entry_path t ~key)
  with
  | () ->
    Atomic.incr t.stores;
    maybe_evict t;
    Ok ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    (match e with
    | Commit_failed detail -> Error detail
    | Sys_error detail -> Error detail
    | Unix.Unix_error (err, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message err))
    | e -> raise e)

type stats = {
  hits : int;
  misses : int;
  corrupt : int;
  stores : int;
  evictions : int;
}

let stats (t : t) : stats =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    corrupt = Atomic.get t.corrupt;
    stores = Atomic.get t.stores;
    evictions = Atomic.get t.evictions;
  }
