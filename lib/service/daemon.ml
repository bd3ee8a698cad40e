module Json = Simcov_util.Json

(* ---- line-oriented connection plumbing ---- *)

type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  wlock : Mutex.t;  (** worker domains and the handler both write *)
  dead : bool Atomic.t;  (** a write failed: the peer went away *)
}

let conn_of_fd fd =
  {
    fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    wlock = Mutex.create ();
    dead = Atomic.make false;
  }

(* one line out, atomically; a failed write marks the connection dead
   instead of raising into the job engine *)
let send conn line =
  if not (Atomic.get conn.dead) then
    Mutex.protect conn.wlock (fun () ->
        try
          output_string conn.oc line;
          output_char conn.oc '\n';
          flush conn.oc
        with Sys_error _ | Unix.Unix_error _ -> Atomic.set conn.dead true)

let close_conn conn =
  (try flush conn.oc with Sys_error _ | Unix.Unix_error _ -> ());
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let recv_line conn = try Some (input_line conn.ic) with End_of_file -> None

(* ---- server ---- *)

let jtrue = Json.Bool true
let jfalse = Json.Bool false

let rejected_envelope ~id ~kind msg =
  Job.envelope ~id ~kind ~status:Job.Rejected ~exit_code:6 ~error:msg ()

let handle_job pool conn request_json job =
  (* a one-slot mailbox: the worker's on_done fills it, we wait *)
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let result = ref None in
  let on_done env =
    Mutex.protect lock (fun () ->
        result := Some env;
        Condition.signal cond)
  in
  match Pool.submit pool ~on_line:(send conn) ~on_done job with
  | Error reason ->
      let id =
        match job.Job.id with Some i -> i | None -> "-"
      in
      send conn (Json.to_string ~indent:0 (rejected_envelope ~id ~kind:(Job.kind job) reason))
  | Ok id ->
      (* if the client hangs up mid-stream, stop paying for the job *)
      let rec await () =
        let env =
          Mutex.protect lock (fun () ->
              let deadline_wait () =
                match !result with
                | Some env -> Some env
                | None ->
                    Condition.wait cond lock;
                    !result
              in
              deadline_wait ())
        in
        match env with
        | Some env -> send conn (Json.to_string ~indent:0 env)
        | None ->
            if Atomic.get conn.dead then ignore (Pool.cancel pool id);
            await ()
      in
      ignore request_json;
      await ()

let handle_op pool conn j =
  match Json.member "op" j with
  | Some (Json.String "jobs") ->
      send conn (Json.to_string ~indent:0 (Pool.list pool))
  | Some (Json.String "ping") ->
      send conn (Json.to_string ~indent:0 (Json.Obj [ ("ok", jtrue) ]))
  | Some (Json.String "cancel") ->
      let id =
        match Json.member "id" j with Some (Json.String s) -> s | _ -> ""
      in
      let ok = id <> "" && Pool.cancel pool id in
      send conn
        (Json.to_string ~indent:0
           (Json.Obj
              [ ("ok", if ok then jtrue else jfalse); ("id", Json.String id) ]))
  | Some (Json.String op) ->
      send conn
        (Json.to_string ~indent:0
           (rejected_envelope ~id:"-" ~kind:"?"
              (Printf.sprintf "unknown op '%s'" op)))
  | Some _ | None -> (
      (* not an op: a job request *)
      match Job.of_json j with
      | Error msg ->
          let id =
            match Json.member "id" j with Some (Json.String s) -> s | _ -> "-"
          in
          send conn (Json.to_string ~indent:0 (rejected_envelope ~id ~kind:"?" msg))
      | Ok job -> handle_job pool conn j job)

let handle_connection pool fd =
  let conn = conn_of_fd fd in
  Fun.protect
    ~finally:(fun () -> close_conn conn)
    (fun () ->
      match recv_line conn with
      | None -> ()
      | Some line -> (
          match Json.parse line with
          | Error msg ->
              send conn
                (Json.to_string ~indent:0
                   (rejected_envelope ~id:"-" ~kind:"?"
                      (Printf.sprintf "malformed request: %s" msg)))
          | Ok j -> handle_op pool conn j))

(* distinguishes the temporary socket names of daemons started by one
   process *)
let setup_seq = Atomic.make 0

let serve ~socket ?queue_limit ?workers ?domain_tokens ?cache () =
  (* The socket is bound and listening under a temporary name in the
     same directory, then renamed onto [socket]: a client that waits
     for the path to appear can connect at once, never in a window
     where it is bound but not yet listening. The rename also replaces
     a stale file left by a killed daemon. *)
  let setup () =
    let tmp =
      Filename.concat (Filename.dirname socket)
        (Printf.sprintf ".simcov-%d-%d.sock" (Unix.getpid ())
           (Atomic.fetch_and_add setup_seq 1))
    in
    let fd = ref None in
    try
      let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      fd := Some s;
      Unix.bind s (Unix.ADDR_UNIX tmp);
      Unix.listen s 16;
      Unix.rename tmp socket;
      Ok s
    with Unix.Unix_error (e, _, _) ->
      Option.iter (fun s -> try Unix.close s with Unix.Unix_error _ -> ()) !fd;
      (try Unix.unlink tmp with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "%s: %s" socket (Unix.error_message e))
  in
  match setup () with
  | Error _ as e -> e
  | Ok listen_fd ->
      let pool = Pool.create ?cache ?queue_limit ?workers ?domain_tokens () in
      let stop = Atomic.make false in
      let on_signal = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
      let prev_term = Sys.signal Sys.sigterm on_signal in
      let prev_int = Sys.signal Sys.sigint on_signal in
      let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
      (* connection domains with a flag each handler sets on exit:
         finished ones are joined from the accept loop, so a long-lived
         daemon holds only its open connections *)
      let conns = ref [] in
      (* a handler that died with an exception has closed its socket;
         it must not take the server down with it *)
      let join (d, _) = try Domain.join d with _ -> () in
      let join_finished () =
        let finished, open_ = List.partition (fun (_, fin) -> Atomic.get fin) !conns in
        conns := open_;
        List.iter join finished
      in
      (* accept with a short poll so a SIGTERM between connections is
         noticed promptly *)
      let rec accept_loop () =
        if not (Atomic.get stop) then begin
          (match Unix.select [ listen_fd ] [] [] 0.2 with
          | [ _ ], _, _ -> (
              match Unix.accept listen_fd with
              | fd, _ ->
                  let fin = Atomic.make false in
                  let d =
                    Domain.spawn (fun () ->
                        Fun.protect
                          ~finally:(fun () -> Atomic.set fin true)
                          (fun () -> handle_connection pool fd))
                  in
                  conns := (d, fin) :: !conns
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
          | _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          join_finished ();
          accept_loop ()
        end
      in
      accept_loop ();
      (* drain: stop the queue through the durable checkpoint path;
         every open connection still gets its final envelope *)
      Pool.drain pool;
      List.iter join !conns;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (try Unix.unlink socket with Unix.Unix_error _ | Sys_error _ -> ());
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int;
      Sys.set_signal Sys.sigpipe prev_pipe;
      Ok ()

(* ---- clients ---- *)

let with_conn ~socket f =
  match
    try
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX socket)
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      Ok (conn_of_fd fd)
    with Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" socket (Unix.error_message e))
  with
  | Error _ as e -> e
  | Ok conn -> Fun.protect ~finally:(fun () -> close_conn conn) (fun () -> f conn)

let one_shot ~socket request =
  with_conn ~socket (fun conn ->
      send conn (Json.to_string ~indent:0 request);
      if Atomic.get conn.dead then Error "connection lost while sending"
      else
        match recv_line conn with
        | None -> Error "connection closed without a reply"
        | Some line -> (
            match Json.parse line with
            | Error msg -> Error (Printf.sprintf "malformed reply: %s" msg)
            | Ok j -> Ok j))

let submit ~socket ?(on_event = fun _ -> ()) job =
  with_conn ~socket (fun conn ->
      send conn (Json.to_string ~indent:0 (Job.to_json job));
      if Atomic.get conn.dead then Error "connection lost while sending"
      else
        let rec read_until_envelope () =
          match recv_line conn with
          | None -> Error "connection closed before the final envelope"
          | Some line -> (
              match Json.parse line with
              | Error msg -> Error (Printf.sprintf "malformed stream line: %s" msg)
              | Ok j -> (
                  (* the envelope is the only line with a status *)
                  match Json.member "status" j with
                  | Some _ -> Ok j
                  | None ->
                      on_event j;
                      read_until_envelope ()))
        in
        read_until_envelope ())

let list_jobs ~socket = one_shot ~socket (Json.Obj [ ("op", Json.String "jobs") ])

let cancel_job ~socket ~id =
  one_shot ~socket
    (Json.Obj [ ("op", Json.String "cancel"); ("id", Json.String id) ])

let ping ~socket = one_shot ~socket (Json.Obj [ ("op", Json.String "ping") ])
