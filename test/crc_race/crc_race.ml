(* Regression: the CRC-32 table used to be a [lazy], and two domains
   forcing it at once made one of them raise
   [CamlinternalLazy.Undefined] (a fresh daemon whose two workers
   started together could fail a job this way). Each child process
   does nothing before hashing from two domains released by one
   barrier; a single try hit the old race about three times in four,
   so the parent runs several children. *)

module Crc32 = Simcov_util.Crc32

let children = 12

let child () =
  let ready = Atomic.make 0 in
  let go = Atomic.make false in
  let worker () =
    Atomic.incr ready;
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    Crc32.to_hex (Crc32.string "123456789")
  in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  while Atomic.get ready < 2 do
    Domain.cpu_relax ()
  done;
  Atomic.set go true;
  List.iter
    (fun d ->
      match Domain.join d with
      | "cbf43926" -> ()
      | h ->
          Printf.eprintf "crc_race: wrong checksum %s\n" h;
          exit 1
      | exception e ->
          Printf.eprintf "crc_race: a concurrent first use raised %s\n"
            (Printexc.to_string e);
          exit 1)
    [ d1; d2 ]

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--child" then child ()
  else begin
    for i = 1 to children do
      let pid =
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; "--child" |]
          Unix.stdin Unix.stdout Unix.stderr
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ ->
          Printf.eprintf "crc_race: child %d of %d failed\n" i children;
          exit 1
    done;
    Printf.printf "crc_race: %d processes, two concurrent first uses each\n"
      children
  end
