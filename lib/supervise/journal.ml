type record = {
  job : string;
  inputs_hash : string;
  attempts : int;
  classification : Classify.t;
  quarantined : bool;
  wall_ms : float;
  attrs : (string * string) list;
}

type t = {
  mutable entries : record list;  (** newest first *)
  oc : out_channel;
  (* Supervised jobs may record from pool worker domains concurrently;
     the lock keeps the entry list and the append stream coherent (one
     written line per record, in the same order as [entries]). *)
  lock : Mutex.t;
}

let magic = "J1"

(* Attrs ride in an optional 8th field as k=v pairs joined by commas;
   keys and values are percent-escaped so tabs, commas and '=' survive. *)
let escape_kv s =
  (* Classify.escape covers '%' and whitespace; the pair syntax also
     needs ',' and '=' out of the way (Classify.unescape decodes any
     %XX, so no matching change is needed on the read side). *)
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | ',' -> Buffer.add_string buf "%2C"
      | '=' -> Buffer.add_string buf "%3D"
      | c -> Buffer.add_char buf c)
    (Classify.escape s);
  Buffer.contents buf

let attrs_to_field attrs =
  String.concat ","
    (List.map (fun (k, v) -> escape_kv k ^ "=" ^ escape_kv v) attrs)

let attrs_of_field field =
  if field = "" then Some []
  else
    String.split_on_char ',' field
    |> List.map (fun pair ->
           match String.index_opt pair '=' with
           | Some i ->
               Some
                 ( Classify.unescape (String.sub pair 0 i),
                   Classify.unescape
                     (String.sub pair (i + 1) (String.length pair - i - 1)) )
           | None -> None)
    |> List.fold_left
         (fun acc kv ->
           match (acc, kv) with
           | Some l, Some kv -> Some (kv :: l)
           | _ -> None)
         (Some [])
    |> Option.map List.rev

let line_of_record r =
  String.concat "\t"
    ([
       magic;
       Classify.escape r.job;
       r.inputs_hash;
       string_of_int r.attempts;
       Classify.to_string r.classification;
       (if r.quarantined then "1" else "0");
       Printf.sprintf "%.3f" r.wall_ms;
     ]
    @ if r.attrs = [] then [] else [ attrs_to_field r.attrs ])

let record_of_line line =
  let parse job inputs_hash attempts cls quarantined wall_ms attrs_field =
    match
      ( int_of_string_opt attempts,
        Classify.of_string cls,
        (match quarantined with "0" -> Some false | "1" -> Some true | _ -> None),
        float_of_string_opt wall_ms,
        attrs_of_field attrs_field )
    with
    | Some attempts, Some classification, Some quarantined, Some wall_ms,
      Some attrs ->
        Some
          {
            job = Classify.unescape job;
            inputs_hash;
            attempts;
            classification;
            quarantined;
            wall_ms;
            attrs;
          }
    | _ -> None
  in
  match String.split_on_char '\t' line with
  | [ m; job; inputs_hash; attempts; cls; quarantined; wall_ms ] when m = magic
    ->
      parse job inputs_hash attempts cls quarantined wall_ms ""
  | [ m; job; inputs_hash; attempts; cls; quarantined; wall_ms; attrs ]
    when m = magic ->
      parse job inputs_hash attempts cls quarantined wall_ms attrs
  | _ -> None

let load_existing path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    let entries = ref [] in
    (try
       while true do
         let line = input_line ic in
         (* Tolerate torn/corrupt lines: the writer may have died
            mid-record, and resuming should not fail on that. *)
         match record_of_line line with
         | Some r -> entries := r :: !entries
         | None -> ()
       done
     with End_of_file -> ());
    close_in ic;
    !entries
  end

let open_file path =
  let entries = load_existing path in
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  { entries; oc; lock = Mutex.create () }

let fsync_oc oc =
  try Unix.fsync (Unix.descr_of_out_channel oc)
  with Unix.Unix_error _ -> ()

(* Nothing to flush: [record] already flushed and fsynced every line. *)
let close t = close_out t.oc

let record t r =
  Mutex.protect t.lock @@ fun () ->
  t.entries <- r :: t.entries;
  output_string t.oc (line_of_record r);
  output_char t.oc '\n';
  flush t.oc;
  (* Durability: flush moves the line to the OS, fsync moves it to the
     disk — without it a power-loss-style kill can lose every record
     since open, not just the one being written. *)
  fsync_oc t.oc

let records t = Mutex.protect t.lock (fun () -> List.rev t.entries)

let find t ~job =
  Mutex.protect t.lock (fun () ->
      List.find_opt (fun r -> r.job = job) t.entries)

let should_skip t ~job ~inputs_hash =
  match find t ~job with
  | Some r ->
      Classify.is_graceful r.classification
      && (not r.quarantined)
      && r.inputs_hash = inputs_hash
  | None -> false

let hash inputs =
  Digest.to_hex (Digest.string (String.concat "\x00" inputs))
