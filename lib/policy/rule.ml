type place = First | Last

type t =
  | Order of string * string
  | Priority of string * string
  | Position of string * place
  | Admit of int

type policy = { bindings : (string * string) list; rules : t list }

let nfs_of_rule = function
  | Order (a, b) | Priority (a, b) -> [ a; b ]
  | Position (a, _) -> [ a ]
  | Admit _ -> []

(* The policy's admission class under overload: the first Admit rule
   wins (Validate flags disagreeing duplicates). None means the chain
   never declared an SLO — class 0, best effort. *)
let admit_class rules =
  List.find_map (function Admit c -> Some c | _ -> None) rules

let nfs_of_rules rules =
  let seen = Hashtbl.create 16 in
  List.concat_map nfs_of_rule rules
  |> List.filter (fun n ->
         if Hashtbl.mem seen n then false
         else begin
           Hashtbl.add seen n ();
           true
         end)

let of_chain names =
  let rec pairs = function
    | a :: (b :: _ as rest) -> Order (a, b) :: pairs rest
    | [ _ ] | [] -> []
  in
  pairs names

let pp fmt = function
  | Order (a, b) -> Format.fprintf fmt "Order(%s, before, %s)" a b
  | Priority (a, b) -> Format.fprintf fmt "Priority(%s > %s)" a b
  | Position (a, First) -> Format.fprintf fmt "Position(%s, first)" a
  | Position (a, Last) -> Format.fprintf fmt "Position(%s, last)" a
  | Admit c -> Format.fprintf fmt "Admit(%d)" c

let pp_policy fmt p =
  Format.fprintf fmt "@[<v>";
  List.iter (fun (name, kind) -> Format.fprintf fmt "NF(%s, %s)@," name kind) p.bindings;
  List.iter (fun r -> Format.fprintf fmt "%a@," pp r) p.rules;
  Format.fprintf fmt "@]"
