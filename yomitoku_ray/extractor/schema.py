"""YAML-driven extraction schema.

Parity with ``/root/reference/src/yomitoku/extractor/schema.py:7-58`` (same
field names/defaults; pydantic-validated; shipped to workers with the
stage's constructor arguments).
"""

from __future__ import annotations

from typing import List, Literal, Optional

import yaml
from pydantic import BaseModel, Field


class ColumnSchema(BaseModel):
    name: str = Field(...)
    description: str = Field("")
    cell_id: Optional[str] = Field(None)
    bbox: Optional[List[int]] = Field(None)
    type: Literal["string", "number", "date", "alphanumeric", "hiragana", "katakana"] = (
        Field("string")
    )
    normalize: Optional[str] = Field(None)


class FieldSchema(BaseModel):
    name: str = Field(...)
    description: str = Field("")
    cell_id: Optional[str] = Field(None)
    bbox: Optional[List[int]] = Field(None)
    regex: Optional[str] = Field(None)
    type: Literal["string", "number", "date", "alphanumeric", "hiragana", "katakana"] = (
        Field("string")
    )
    structure: Literal["scalar", "kv", "table"] = Field("scalar")
    normalize: Optional[str] = Field(None)
    merge_values: bool = Field(False)
    separator: str = Field("\n")
    columns: Optional[List[ColumnSchema]] = Field(None)


class ExtractionSchema(BaseModel):
    fields: List[FieldSchema] = Field(...)

    @classmethod
    def from_yaml(cls, path: str) -> "ExtractionSchema":
        with open(path, "r", encoding="utf-8") as f:
            data = yaml.safe_load(f)
        return cls.model_validate(data)

    @classmethod
    def from_dict(cls, data: dict) -> "ExtractionSchema":
        return cls.model_validate(data)
