(* CRC-32 (IEEE), table-driven, zlib-compatible: reflected polynomial
   0xEDB88320, initial value 0xFFFFFFFF, final xor 0xFFFFFFFF, with the
   inversions folded into [update] so a running value is always a
   finished CRC. *)

(* Built eagerly at module initialisation. A [lazy] table raced: two
   domains forcing it at once made one of them raise
   [CamlinternalLazy.Undefined]. *)
let table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let update crc s =
  let t = table in
  let c = ref (Int32.lognot crc) in
  String.iter
    (fun ch ->
      let i = Int32.to_int (Int32.logand !c 0xFFl) lxor Char.code ch in
      c := Int32.logxor t.(i) (Int32.shift_right_logical !c 8))
    s;
  Int32.lognot !c

let string s = update 0l s

let substring s ~pos ~len = string (String.sub s pos len)

let to_hex c = Printf.sprintf "%08lx" c

let of_hex s =
  if String.length s <> 8 then None
  else
    let ok = String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s in
    if not ok then None
    else
      (* two halves: a full 8-digit parse can overflow Int32.of_string's
         signed range; scanning each half keeps it in bounds *)
      match
        (int_of_string ("0x" ^ String.sub s 0 4), int_of_string ("0x" ^ String.sub s 4 4))
      with
      | hi, lo ->
          Some (Int32.logor (Int32.shift_left (Int32.of_int hi) 16) (Int32.of_int lo))
      | exception _ -> None
