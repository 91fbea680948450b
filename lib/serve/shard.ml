type t = {
  sh_slot : int;
  sh_pid : int;
  sh_out : Transport.Outbuf.t;
  mutable sh_fd : Unix.file_descr option;
}

let slot t = t.sh_slot
let pid t = t.sh_pid
let fd t = t.sh_fd

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Both ends are close-on-exec: [create_process] dup2s the child's end
   onto its fds 0 and 1, which clears the flag on those copies, and no
   shard inherits another shard's router end.  So when the router dies,
   every shard reads end of input. *)
let start ~binary ~slot ~args =
  let mine, theirs =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  match
    Unix.create_process binary
      (Array.of_list (binary :: "serve" :: args))
      theirs theirs Unix.stderr
  with
  | pid ->
    close_quiet theirs;
    {
      sh_slot = slot;
      sh_pid = pid;
      (* uncapped: [Router.has_room] bounds what waits here *)
      sh_out = Transport.Outbuf.create ~cap:max_int mine;
      sh_fd = Some mine;
    }
  | exception e ->
    close_quiet mine;
    close_quiet theirs;
    raise e

let send t line =
  Option.is_some t.sh_fd
  && Transport.Outbuf.write t.sh_out (line ^ "\n") <> `Dead

let pending t = Option.is_some t.sh_fd && Transport.Outbuf.pending t.sh_out

let flush t =
  Option.is_some t.sh_fd && Transport.Outbuf.service t.sh_out <> `Dead

let reap ?(patience_ms = 5000) t =
  let deadline =
    Unix.gettimeofday () +. (float_of_int patience_ms /. 1000.0)
  in
  let rec wait escalated =
    match Unix.waitpid [ Unix.WNOHANG ] t.sh_pid with
    | 0, _ ->
      if (not escalated) && Unix.gettimeofday () > deadline then begin
        (try Unix.kill t.sh_pid Sys.sigkill with Unix.Unix_error _ -> ());
        wait true
      end
      else begin
        Unix.sleepf 0.02;
        wait escalated
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait false

let abandon t =
  Option.iter close_quiet t.sh_fd;
  t.sh_fd <- None;
  reap ~patience_ms:2000 t

let terminate ?patience_ms t =
  Option.iter close_quiet t.sh_fd;
  t.sh_fd <- None;
  (try Unix.kill t.sh_pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap ?patience_ms t
