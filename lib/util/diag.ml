type code =
  | Missing_file
  | Bad_magic
  | Truncated
  | Count_out_of_range
  | Malformed
  | Thread_mismatch
  | Icount_mismatch
  | Segment_overlap
  | Symbol_out_of_bounds
  | Entry_out_of_bounds
  | Stack_collision
  | Divergence
  | Io_error

let code_name = function
  | Missing_file -> "missing-file"
  | Bad_magic -> "bad-magic"
  | Truncated -> "truncated"
  | Count_out_of_range -> "count-out-of-range"
  | Malformed -> "malformed"
  | Thread_mismatch -> "thread-mismatch"
  | Icount_mismatch -> "icount-mismatch"
  | Segment_overlap -> "segment-overlap"
  | Symbol_out_of_bounds -> "symbol-out-of-bounds"
  | Entry_out_of_bounds -> "entry-out-of-bounds"
  | Stack_collision -> "stack-collision"
  | Divergence -> "divergence"
  | Io_error -> "io-error"

type t = {
  code : code;
  artifact : string;
  offset : int option;
  message : string;
}

exception Error of t

let v ?offset ~artifact code message = { code; artifact; offset; message }

let f ?offset ~artifact code fmt =
  Printf.ksprintf (fun message -> { code; artifact; offset; message }) fmt

let fail ?offset ~artifact code fmt =
  Printf.ksprintf
    (fun message -> raise (Error { code; artifact; offset; message }))
    fmt

(* [Sys_error]'s text starts with the path it failed on, which the
   artifact already names. *)
let io_error ~artifact msg =
  let prefix = artifact ^ ": " in
  let n = String.length prefix in
  let message =
    if String.starts_with ~prefix msg then String.sub msg n (String.length msg - n)
    else msg
  in
  v ~artifact Io_error message

let to_string d =
  Printf.sprintf "[%s] %s%s: %s" (code_name d.code) d.artifact
    (match d.offset with
    | Some off -> Printf.sprintf " (at byte %d)" off
    | None -> "")
    d.message

let pp fmt d = Format.pp_print_string fmt (to_string d)

(* Run [fn], turning a raised [Error] into [Result.Error]. *)
let protect fn = match fn () with v -> Ok v | exception Error d -> Result.Error d

let () =
  Printexc.register_printer (function
    | Error d -> Some ("Diag.Error " ^ to_string d)
    | _ -> None)
