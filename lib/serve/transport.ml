type addr = Unix_sock of string | Tcp of string * int

let parse_addr s =
  let colon_split s =
    match String.rindex_opt s ':' with
    | None -> None
    | Some i ->
      Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  let tcp host port_s =
    match int_of_string_opt port_s with
    | Some p when p >= 0 && p <= 65535 ->
      Ok (Tcp ((if host = "" then "*" else host), p))
    | _ -> Error (Printf.sprintf "bad TCP port %S" port_s)
  in
  if String.length s > 5 && String.sub s 0 5 = "unix:" then
    let path = String.sub s 5 (String.length s - 5) in
    if path = "" then Error "empty unix socket path" else Ok (Unix_sock path)
  else if String.length s > 4 && String.sub s 0 4 = "tcp:" then
    match colon_split (String.sub s 4 (String.length s - 4)) with
    | Some (host, port) -> tcp host port
    | None -> Error (Printf.sprintf "bad TCP address %S (want tcp:HOST:PORT)" s)
  else if String.contains s '/' then Ok (Unix_sock s)
  else
    Error
      (Printf.sprintf
         "bad listen address %S (want unix:PATH or tcp:HOST:PORT)" s)

let addr_to_string = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let sockaddr_of = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
    let ip =
      if host = "*" then Unix.inet_addr_any
      else if host = "localhost" then Unix.inet_addr_loopback
      else
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } -> Unix.inet_addr_loopback
          | h -> h.Unix.h_addr_list.(0)
          | exception Not_found -> Unix.inet_addr_loopback)
    in
    Unix.ADDR_INET (ip, port)

let domain_of = function
  | Unix_sock _ -> Unix.PF_UNIX
  | Tcp _ -> Unix.PF_INET

let unlink_addr = function
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

let listen ?(backlog = 64) addr =
  (* a stale socket file from a dead listener can only ever refuse *)
  unlink_addr addr;
  let fd = Unix.socket (domain_of addr) Unix.SOCK_STREAM 0 in
  (match addr with
  | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Unix_sock _ -> ());
  (try Unix.bind fd (sockaddr_of addr)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen fd backlog;
  fd

let connect addr =
  let fd = Unix.socket (domain_of addr) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (sockaddr_of addr)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

module Framing = struct
  (* [buf] holds the partial line, the bytes since the last newline.  A
     read is scanned once, from its own first byte, so a line that
     arrives in many reads costs its length, not its length times the
     number of reads. *)
  type t = { buf : Buffer.t; max_line : int; mutable poisoned : bool }

  type event = Line of string | Oversize

  let create ~max_line = { buf = Buffer.create 256; max_line; poisoned = false }

  let feed t chunk =
    let events = ref [] in
    (* the partial line grown by [n] more bytes is over the cap *)
    let over n = t.max_line > 0 && Buffer.length t.buf + n > t.max_line in
    let poison () =
      t.poisoned <- true;
      Buffer.clear t.buf;
      events := Oversize :: !events
    in
    let rec go start =
      if not t.poisoned then
        match String.index_from_opt chunk start '\n' with
        | Some nl when over (nl - start) -> poison ()
        | Some nl ->
          Buffer.add_substring t.buf chunk start (nl - start);
          events := Line (Buffer.contents t.buf) :: !events;
          Buffer.clear t.buf;
          go (nl + 1)
        | None ->
          let rest = String.length chunk - start in
          if over rest then poison ()
          else Buffer.add_substring t.buf chunk start rest
    in
    go 0;
    List.rev !events

  let finish t =
    let line =
      if t.poisoned || Buffer.length t.buf = 0 then None
      else Some (Buffer.contents t.buf)
    in
    Buffer.clear t.buf;
    line

  let partial t = (not t.poisoned) && Buffer.length t.buf > 0
end

module Outbuf = struct
  (* The write-side twin of [Framing]: a socket under pressure accepts
     only part of a frame (EAGAIN/EWOULDBLOCK mid-write on a nonblocking
     fd), and a frame must never be torn or reordered.  Writers append
     whole frames; whatever the kernel refuses is buffered and resumed
     by [service] when the select loop reports the fd writable.  All
     entry points take the internal mutex, so worker domains and the
     select loop can share one outbuf. *)
  type t = {
    ob_fd : Unix.file_descr;
    ob_mu : Mutex.t;
    ob_buf : Buffer.t;  (** the unwritten tail, oldest bytes first *)
    ob_cap : int;  (** tail cap; exceeding it declares the peer dead *)
    mutable ob_dead : bool;
  }

  let create ?(cap = 8 * 1024 * 1024) fd =
    Unix.set_nonblock fd;
    {
      ob_fd = fd;
      ob_mu = Mutex.create ();
      ob_buf = Buffer.create 256;
      ob_cap = cap;
      ob_dead = false;
    }

  let fd t = t.ob_fd

  let locked t f =
    Mutex.lock t.ob_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.ob_mu) f

  (* Push as much of the tail as the kernel accepts.  Call with the
     mutex held.  Leaves [ob_dead] latched on any hard write error. *)
  let drain_locked t =
    let data = Buffer.contents t.ob_buf in
    let len = String.length data in
    let pos = ref 0 in
    (try
       while !pos < len do
         let n = Unix.write_substring t.ob_fd data !pos (len - !pos) in
         if n = 0 then raise Exit;
         pos := !pos + n
       done
     with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) | Exit -> ()
    | Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | Unix.Unix_error _ | Sys_error _ -> t.ob_dead <- true);
    if !pos > 0 then begin
      let rest = String.sub data !pos (len - !pos) in
      Buffer.clear t.ob_buf;
      Buffer.add_string t.ob_buf rest
    end;
    if t.ob_dead then Buffer.clear t.ob_buf

  let write t frame =
    locked t (fun () ->
        if t.ob_dead then `Dead
        else begin
          Buffer.add_string t.ob_buf frame;
          drain_locked t;
          if t.ob_dead then `Dead
          else if Buffer.length t.ob_buf = 0 then `Ok
          else if Buffer.length t.ob_buf > t.ob_cap then begin
            (* a peer that stopped reading while we owe it this much is
               gone for all practical purposes; latch rather than grow *)
            t.ob_dead <- true;
            Buffer.clear t.ob_buf;
            `Dead
          end
          else `Buffered
        end)

  let service t =
    locked t (fun () ->
        if not t.ob_dead then drain_locked t;
        if t.ob_dead then `Dead
        else if Buffer.length t.ob_buf = 0 then `Ok
        else `Buffered)

  let pending t = locked t (fun () -> (not t.ob_dead) && Buffer.length t.ob_buf > 0)

  let dead t = locked t (fun () -> t.ob_dead)
end
