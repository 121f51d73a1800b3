type file = { mutable data : bytes; mutable size : int }
type t = { files : (string, file) Hashtbl.t }

let create () = { files = Hashtbl.create 32 }

let normalize ~cwd path =
  let absolute = if String.length path > 0 && path.[0] = '/' then path
    else cwd ^ "/" ^ path
  in
  let parts = String.split_on_char '/' absolute in
  let keep = List.filter (fun p -> p <> "" && p <> ".") parts in
  "/" ^ String.concat "/" keep

let add_file t ~path content =
  let size = String.length content in
  Hashtbl.replace t.files path { data = Bytes.of_string content; size }

let find t path = Hashtbl.find_opt t.files path
let exists t path = Hashtbl.mem t.files path
let file_size t path = Option.map (fun f -> f.size) (find t path)

let read_file t path =
  Option.map (fun f -> Bytes.sub_string f.data 0 f.size) (find t path)

let remove t path = Hashtbl.remove t.files path

let copy t =
  let files = Hashtbl.create (Hashtbl.length t.files) in
  Hashtbl.iter
    (fun path f -> Hashtbl.replace files path { data = Bytes.copy f.data; size = f.size })
    t.files;
  { files }

let read_at t path ~pos ~len =
  match find t path with
  | None -> None
  | Some f ->
      if pos >= f.size || len <= 0 then Some ""
      else
        let n = min len (f.size - pos) in
        Some (Bytes.sub_string f.data pos n)

let grow f needed =
  if needed > Bytes.length f.data then begin
    let cap = max needed (2 * Bytes.length f.data) in
    let data = Bytes.make cap '\000' in
    Bytes.blit f.data 0 data 0 f.size;
    f.data <- data
  end

let write_at t path ~pos s =
  match find t path with
  | None -> None
  | Some f ->
      let len = String.length s in
      grow f (pos + len);
      Bytes.blit_string s 0 f.data pos len;
      f.size <- max f.size (pos + len);
      Some len
